package arch

import (
	"bytes"
	"testing"
)

// encodePrefix is the foreign content every append-form call below
// writes after; it must survive untouched.
var encodePrefix = []byte{0xA5, 0x5A, 0xC3}

// withPrefix returns a fresh copy of encodePrefix with spare capacity
// spare, so the append runs both in place (spare > 0) and through a
// reallocation (spare == 0).
func withPrefix(spare int) []byte {
	return append(make([]byte, 0, len(encodePrefix)+spare), encodePrefix...)
}

// TestAppendEncodeProperty covers every Kind on every ISA: a kind the
// ISA encodes appends exactly EncLen bytes after an intact prefix, and
// those bytes decode back to the instruction; a kind the ISA lacks
// fails and returns dst unchanged.
func TestAppendEncodeProperty(t *testing.T) {
	for _, a := range All() {
		enc := ForArch(a)
		byKind := map[Kind][]Instr{
			Mark:    {{Kind: Mark}},
			Illegal: {{Kind: Illegal}},
		}
		if a.FixedWidth() {
			// The 16-bit movimm alias (decodes as movz).
			byKind[MovImm] = []Instr{{Kind: MovImm, Rd: R1, Imm: 0x1234}}
		}
		for _, ins := range sampleInstrs(a) {
			byKind[ins.Kind] = append(byKind[ins.Kind], ins)
		}
		for k := Nop; k <= Mark; k++ {
			samples := byKind[k]
			if len(samples) == 0 {
				// Not an instruction of this ISA: encoding must refuse
				// it without touching dst.
				dst := withPrefix(16)
				out, err := enc.AppendEncode(dst, Instr{Kind: k, Rd: R1, Rs1: R2})
				if err == nil {
					t.Errorf("%s: %s encoded although the ISA lacks it", a, k)
				}
				if !bytes.Equal(out, encodePrefix) {
					t.Errorf("%s: failed %s encode changed dst to % x", a, k, out)
				}
				continue
			}
			for _, ins := range samples {
				for _, spare := range []int{0, enc.MaxLen()} {
					out, err := enc.AppendEncode(withPrefix(spare), ins)
					if err != nil {
						t.Fatalf("%s: encode %q: %v", a, ins, err)
					}
					if !bytes.Equal(out[:len(encodePrefix)], encodePrefix) {
						t.Errorf("%s: encoding %q clobbered the prefix: % x", a, ins, out[:len(encodePrefix)])
					}
					b := out[len(encodePrefix):]
					if len(b) != EncLen(a, ins) {
						t.Errorf("%s: %q appended %d bytes, EncLen says %d", a, ins, len(b), EncLen(a, ins))
					}
					got, err := enc.Decode(b, 0)
					if err != nil {
						t.Fatalf("%s: decode %q: %v", a, ins, err)
					}
					if got.EncLen != len(b) || normalize(got, a) != normalize(ins, a) {
						t.Errorf("%s: %q -> % x decoded as %q (%d bytes)", a, ins, b, got, got.EncLen)
					}
				}
			}
		}
		// An out-of-range operand fails the same way as a missing kind.
		dst := withPrefix(16)
		out, err := enc.AppendEncode(dst, Instr{Kind: Syscall, Imm: 256})
		if err == nil || !bytes.Equal(out, encodePrefix) {
			t.Errorf("%s: out-of-range syscall: err=%v dst=% x", a, err, out)
		}
	}
}

// emitCases returns one laid-out item per expansion state the
// architecture's emitter renders, plus the ExpandNone patch forms; far
// and lea-pair forms exist only on the fixed-width ISAs.
func emitCases(a Arch) []EmitItem {
	const at, far = 0x10000000, 0x10804000
	call, callInd := Instr{Kind: Call}, Instr{Kind: CallInd, Rs1: R8}
	items := []EmitItem{
		{Ins: Instr{Kind: Nop}},
		{Ins: Instr{Kind: Branch}, HasTarget: true, Target: at + 0x40},
		{Ins: Instr{Kind: BranchCond, Cond: EQ, Rs1: R3}, HasTarget: true, Target: at - 0x80},
		{Ins: call, HasTarget: true, Target: far},
		{Ins: Instr{Kind: Lea, Rd: R5}, HasTarget: true, Target: at + 0x1234},
		{Ins: Instr{Kind: BranchCond, Cond: NE, Rs1: R1}, HasTarget: true, Target: far, Expand: ExpandCondIsland},
		{Ins: call, HasTarget: true, Target: far, Expand: ExpandEmulCall, OrigAddr: 0x400100, OrigLen: EncLen(a, call)},
		{Ins: callInd, Expand: ExpandEmulCallInd, OrigAddr: 0x400200, OrigLen: EncLen(a, callInd)},
	}
	if a == X64 {
		items = append(items,
			EmitItem{Ins: Instr{Kind: MovImm, Rd: R2}, HasTarget: true, Form: FormImmAbs, Target: far},
			EmitItem{Ins: Instr{Kind: LoadPC, Rd: R3, Size: 8}, HasTarget: true, Target: at + 0x800},
		)
		return items
	}
	return append(items,
		EmitItem{Ins: Instr{Kind: AddImm16, Rd: R4, Rs1: R4}, HasTarget: true, Form: FormImmLo12, Target: far + 0x123},
		EmitItem{Ins: Instr{Kind: MovK16, Rd: R4, Shift: 1}, HasTarget: true, Form: FormImmHi16, Target: far},
		EmitItem{Ins: Instr{Kind: Lea, Rd: R5}, HasTarget: true, Target: far + 0x10, Expand: ExpandLeaPair},
		EmitItem{Ins: Instr{Kind: Branch}, HasTarget: true, Target: far, Expand: ExpandFarBranch},
		EmitItem{Ins: call, HasTarget: true, Target: far, Expand: ExpandFarCall},
		EmitItem{Ins: call, HasTarget: true, Target: far, Expand: ExpandEmulCallFar, OrigAddr: 0x400300, OrigLen: EncLen(a, call)},
	)
}

// TestRenderProperty checks every expansion state of every emitter, in
// PIE and non-PIE images: Render appends after an intact prefix, the
// rendered sequence is contiguous from NewAddr and as long as
// ExpandedLen says, and EmitInto's bytes decode back to that sequence.
func TestRenderProperty(t *testing.T) {
	for _, a := range All() {
		e := EmitterFor(a)
		for _, pie := range []bool{false, true} {
			env := EmitEnv{PIE: pie, TOCValue: 0x10008000}
			for _, it := range emitCases(a) {
				it.NewAddr = 0x10000000
				it.NewLen = e.ExpandedLen(env, it.Ins, it.Expand)
				prefix := []Instr{{Kind: Trap}, {Kind: Halt}}
				seq, err := e.Render(append([]Instr(nil), prefix...), env, it)
				if err != nil {
					t.Fatalf("%s pie=%t %s %s: render: %v", a, pie, it.Ins, it.Expand, err)
				}
				if seq[0] != prefix[0] || seq[1] != prefix[1] {
					t.Errorf("%s pie=%t %s %s: render clobbered the prefix", a, pie, it.Ins, it.Expand)
				}
				seq = seq[len(prefix):]
				addr, n := it.NewAddr, 0
				for _, ins := range seq {
					if ins.Addr != addr {
						t.Errorf("%s pie=%t %s %s: %q at %#x, want %#x", a, pie, it.Ins, it.Expand, ins, ins.Addr, addr)
					}
					addr += uint64(EncLen(a, ins))
					n += EncLen(a, ins)
				}
				if n != it.NewLen {
					t.Errorf("%s pie=%t %s %s: rendered %d bytes, ExpandedLen %d", a, pie, it.Ins, it.Expand, n, it.NewLen)
				}
				buf := make([]byte, it.NewLen+4)
				copy(buf[it.NewLen:], []byte{1, 2, 3, 4})
				if _, err := EmitInto(e, env, it, buf); err != nil {
					t.Fatalf("%s pie=%t %s %s: %v", a, pie, it.Ins, it.Expand, err)
				}
				if !bytes.Equal(buf[it.NewLen:], []byte{1, 2, 3, 4}) {
					t.Errorf("%s pie=%t %s %s: EmitInto wrote past its window", a, pie, it.Ins, it.Expand)
				}
				got := DecodeAll(a, buf[:it.NewLen], it.NewAddr)
				if len(got) != len(seq) {
					t.Fatalf("%s pie=%t %s %s: decoded %d instructions, rendered %d", a, pie, it.Ins, it.Expand, len(got), len(seq))
				}
				for k := range seq {
					if normalize(got[k], a) != normalize(seq[k], a) {
						t.Errorf("%s pie=%t %s %s: instruction %d rendered %q, decoded %q", a, pie, it.Ins, it.Expand, k, seq[k], got[k])
					}
				}
			}
		}
		// The X64 emitter has no far or lea-pair forms: those are layout
		// errors there, and emission must refuse them.
		if a == X64 {
			for _, exp := range []Expand{ExpandLeaPair, ExpandFarBranch, ExpandFarCall, ExpandEmulCallFar} {
				it := EmitItem{Ins: Instr{Kind: Lea, Rd: R5}, HasTarget: true, Target: 0x2000, Expand: exp, NewAddr: 0x1000}
				it.NewLen = e.ExpandedLen(EmitEnv{}, it.Ins, exp)
				if _, err := EmitInto(e, EmitEnv{}, it, make([]byte, it.NewLen)); err == nil {
					t.Errorf("x64: EmitInto accepted %s", exp)
				}
			}
		}
	}
}

// TestEmitIntoRejectsLengthMismatch pins EmitInto's guard against an
// item whose laid-out length disagrees with what it renders: the error
// is reported and no byte past the window is written.
func TestEmitIntoRejectsLengthMismatch(t *testing.T) {
	for _, a := range All() {
		e := EmitterFor(a)
		it := EmitItem{Ins: Instr{Kind: Branch}, HasTarget: true, Target: 0x2000, NewAddr: 0x1000}
		want := e.ExpandedLen(EmitEnv{}, it.Ins, it.Expand)
		for _, n := range []int{want - 1, want + 1} {
			it.NewLen = n
			buf := bytes.Repeat([]byte{0xEE}, want+8)
			if _, err := EmitInto(e, EmitEnv{}, it, buf); err == nil {
				t.Errorf("%s: NewLen %d (renders %d) accepted", a, n, want)
			}
			if !bytes.Equal(buf[max(n, 0):], bytes.Repeat([]byte{0xEE}, len(buf)-max(n, 0))) {
				t.Errorf("%s: NewLen %d: bytes past the window were written", a, n)
			}
		}
	}
}
