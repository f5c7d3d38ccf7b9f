package instrument

import (
	"slices"
	"testing"

	"icfgpatch/internal/arch"
)

func TestRequestWants(t *testing.T) {
	all := Request{Where: BlockEntry}
	if !all.Wants("anything") {
		t.Error("nil Funcs must cover everything")
	}
	some := Request{Funcs: []string{"a", "b"}}
	if !some.Wants("a") || some.Wants("c") {
		t.Error("subset selection wrong")
	}
}

func TestCounterSnippetShape(t *testing.T) {
	for _, a := range arch.All() {
		for _, pie := range []bool{false, true} {
			seq := AppendCounterSnippet(nil, a, pie, 0x500000)
			if len(seq) < 7 {
				t.Fatalf("%s pie=%v: snippet too short (%d instrs)", a, pie, len(seq))
			}
			// First two instructions spill the scratch registers below
			// SP; last two restore them.
			if seq[0].Kind != arch.Store || seq[1].Kind != arch.Store {
				t.Errorf("%s pie=%v: snippet does not spill", a, pie)
			}
			last := seq[len(seq)-1]
			prev := seq[len(seq)-2]
			if last.Kind != arch.Load || prev.Kind != arch.Load {
				t.Errorf("%s pie=%v: snippet does not restore", a, pie)
			}
			// The snippet must only clobber its two scratch registers
			// (net effect; spilled and restored).
			var defs arch.RegSet
			for _, ins := range seq {
				defs = defs.Union(ins.Defs(a))
			}
			defs = defs.Remove(snipA).Remove(snipB)
			if defs != 0 {
				t.Errorf("%s pie=%v: snippet clobbers extra registers %v", a, pie, defs)
			}
			// Contains exactly one increment.
			incs := 0
			for _, ins := range seq {
				if ins.Kind == arch.ALUImm && ins.Op == arch.Add && ins.Imm == 1 {
					incs++
				}
			}
			if incs != 1 {
				t.Errorf("%s pie=%v: %d increments", a, pie, incs)
			}
			// Appending after existing instructions keeps them and adds
			// the same sequence, within CounterSnippetMaxLen.
			prefix := arch.Instr{Kind: arch.Trap}
			got := AppendCounterSnippet([]arch.Instr{prefix}, a, pie, 0x500000)
			if got[0] != prefix || !slices.Equal(got[1:], seq) {
				t.Errorf("%s pie=%v: append onto a prefix changed the output", a, pie)
			}
			if len(seq) > CounterSnippetMaxLen {
				t.Errorf("%s pie=%v: %d instructions exceed CounterSnippetMaxLen %d", a, pie, len(seq), CounterSnippetMaxLen)
			}
		}
	}
}

func TestCounterSnippetAddressing(t *testing.T) {
	// PIE snippets must form the cell address PC-relatively; position
	// dependent snippets materialise it.
	seq := AppendCounterSnippet(nil, arch.X64, true, 0x500000)
	foundLea := false
	for _, ins := range seq {
		if ins.Kind == arch.Lea {
			foundLea = true
		}
		if ins.Kind == arch.MovImm {
			t.Error("pie snippet uses an absolute immediate")
		}
	}
	if !foundLea {
		t.Error("pie x64 snippet has no lea")
	}
	seq = AppendCounterSnippet(nil, arch.A64, false, 0x500000)
	for _, ins := range seq {
		if ins.Kind == arch.LeaHi {
			t.Error("non-pie snippet uses adrp")
		}
	}
}
