package core

import (
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/workload"
)

// emitAllocCases returns one laid-out item per expansion form the
// architecture's emitter renders: the plain form plus every growth
// layout can assign (far and lea-pair forms exist only on the
// fixed-width ISAs, where X64 reports a layout error instead).
func emitAllocCases(a arch.Arch, env arch.EmitEnv) []arch.EmitItem {
	const at, far = 0x10000000, 0x10804000
	call, callInd := arch.Instr{Kind: arch.Call}, arch.Instr{Kind: arch.CallInd, Rs1: arch.R3}
	items := []arch.EmitItem{
		{Ins: arch.Instr{Kind: arch.Branch}, HasTarget: true, Target: at + 0x40},
		{Ins: arch.Instr{Kind: arch.BranchCond, Cond: arch.NE, Rs1: arch.R1}, HasTarget: true, Target: far, Expand: arch.ExpandCondIsland},
		{Ins: call, HasTarget: true, Target: far, Expand: arch.ExpandEmulCall, OrigAddr: 0x400100, OrigLen: arch.EncLen(a, call)},
		{Ins: callInd, Expand: arch.ExpandEmulCallInd, OrigAddr: 0x400200, OrigLen: arch.EncLen(a, callInd)},
	}
	if a.FixedWidth() {
		items = append(items,
			arch.EmitItem{Ins: arch.Instr{Kind: arch.Lea, Rd: arch.R5}, HasTarget: true, Target: far, Expand: arch.ExpandLeaPair},
			arch.EmitItem{Ins: arch.Instr{Kind: arch.Branch}, HasTarget: true, Target: far, Expand: arch.ExpandFarBranch},
			arch.EmitItem{Ins: call, HasTarget: true, Target: far, Expand: arch.ExpandFarCall},
			arch.EmitItem{Ins: call, HasTarget: true, Target: far, Expand: arch.ExpandEmulCallFar, OrigAddr: 0x400300, OrigLen: arch.EncLen(a, call)},
		)
	}
	e := arch.EmitterFor(a)
	for i := range items {
		items[i].NewAddr = at
		items[i].NewLen = e.ExpandedLen(env, items[i].Ins, items[i].Expand)
	}
	return items
}

// TestEmitAllocationFree is the emit stage's allocation gate. Emission
// is recomputed on every Patch rather than cached, which stays cheap
// only while encoding allocates nothing per instruction: arch.EmitInto
// must allocate zero times for every ISA × expansion form, and the emit
// stage of a warm Patch on the libxul-like X64 workload at most 0.01
// times per emitted instruction (the output buffer and the
// return-address slice are per-Patch, not per-instruction).
func TestEmitAllocationFree(t *testing.T) {
	t.Run("emit-into", func(t *testing.T) {
		for _, a := range arch.All() {
			e := arch.EmitterFor(a)
			for _, pie := range []bool{false, true} {
				env := arch.EmitEnv{PIE: pie, TOCValue: 0x10008000}
				for _, it := range emitAllocCases(a, env) {
					dst := make([]byte, it.NewLen)
					n := testing.AllocsPerRun(50, func() {
						if _, err := arch.EmitInto(e, env, it, dst); err != nil {
							t.Fatalf("%s pie=%t %s: %v", a, pie, it.Expand, err)
						}
					})
					if n != 0 {
						t.Errorf("%s pie=%t %s: EmitInto allocated %v times, want 0", a, pie, it.Expand, n)
					}
				}
			}
		}
	})
	t.Run("warm-patch", func(t *testing.T) {
		prog, err := workload.LibxulCached(arch.X64)
		if err != nil {
			t.Fatal(err)
		}
		an, err := Analyze(prog.Binary, AnalysisConfig{Mode: ModeJT})
		if err != nil {
			t.Fatal(err)
		}
		for _, payload := range []instrument.Payload{instrument.PayloadEmpty, instrument.PayloadCounter} {
			opts := Options{Mode: ModeJT, Request: instrument.Request{Where: instrument.BlockEntry, Payload: payload}}
			// Warm the pools the way a serving loop does.
			res, err := an.Patch(opts)
			if err != nil {
				t.Fatal(err)
			}
			res.Recycle()
			p, err := an.PlanFor(opts)
			if err != nil {
				t.Fatal(err)
			}
			items := 0
			for _, u := range p.units {
				items += len(u.items)
			}
			allocs := testing.AllocsPerRun(5, func() {
				out, clone, _, _, err := p.emit()
				if err != nil {
					t.Fatal(err)
				}
				putEmitBuf(out)
				putEmitBuf(clone)
			})
			perInstr := allocs / float64(items)
			if perInstr > 0.01 {
				t.Errorf("payload=%d: emit stage allocated %.0f times for %d instructions (%.4f per instruction), budget 0.01",
					payload, allocs, items, perInstr)
			} else {
				t.Logf("payload=%d: %.0f allocs for %d instructions (%.5f per instruction)", payload, allocs, items, perInstr)
			}
		}
	})
}
