package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"icfgpatch/internal/analysis"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/cfg"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/rtlib"
	"icfgpatch/internal/unwind"
)

// The instrumentation requests the workloads send: the paper's
// block-entry/empty request for overhead, block-entry counters where the
// counts are checked.
var (
	blockEmpty    = instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadEmpty}
	blockCounters = instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadCounter}
)

// refused reports whether err is func-ptr mode's sound refusal, which
// is an answer, not a failure.
func refused(opts core.Options, err error) bool {
	return opts.Mode == core.ModeFuncPtr && errors.Is(err, core.ErrImpreciseFuncPtrs)
}

// maxEmuInstrs bounds every emulated run; the generated programs finish
// well inside it.
const maxEmuInstrs = 50_000_000

// execute runs b in the emulator, with the runtime library preloaded
// when preload is set (rewritten images need it for traps and return
// address translation). profile lists link-time addresses whose
// execution counts the run records.
func execute(rec *recorder, b *bin.Binary, arg uint64, cet, preload bool, profile []uint64) (emu.Result, *emu.Machine, error) {
	opts := emu.Options{Arg: arg, EnforceCET: cet, ProfileAddrs: profile, MaxInstrs: maxEmuInstrs}
	if preload {
		s := rec.start("rtlib", "rtlib.preload")
		lib, err := rtlib.Preload(b)
		rec.end(s)
		if err != nil {
			return emu.Result{}, nil, err
		}
		opts.Runtime = lib
	}
	s := rec.start("emu", "emu.load")
	m, err := emu.Load(b, opts)
	rec.end(s)
	if err != nil {
		return emu.Result{}, nil, err
	}
	s = rec.start("emu", "emu.run")
	r, err := m.Run()
	rec.end(s)
	return r, m, err
}

// checkCounters compares every counter cell of a rewritten run with
// the original run's count for its block.
func checkCounters(m *emu.Machine, cells map[uint64]uint64, want map[uint64]uint64) error {
	if len(cells) == 0 {
		return errors.New("no counters to check")
	}
	for point, cell := range cells {
		n, ok := want[point]
		if !ok {
			return fmt.Errorf("counter for %#x, a block the reference run did not count", point)
		}
		got, err := m.MemRead(cell, 8)
		if err != nil {
			return fmt.Errorf("counter for %#x: %w", point, err)
		}
		if got != n {
			return fmt.Errorf("counter for block %#x = %d, original ran it %d times", point, got, n)
		}
	}
	return nil
}

// sampleAllocs runs fn and records its heap allocations and bytes under
// the given metric names.
func sampleAllocs(l *ledger, allocsName, bytesName string, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	l.sample(allocsName, float64(after.Mallocs-before.Mallocs))
	if bytesName != "" {
		l.sample(bytesName, float64(after.TotalAlloc-before.TotalAlloc))
	}
}

// probeRewrite splits one rewrite of b into its layers. It calls the
// public analysis passes one by one, in core.Analyze's order, then
// core.Analyze itself, whose time beyond the passes is reported as
// unattributed (mostly the private unit-identity pass), then PlanFor and
// Patch. Analyze redoes the passes and Patch redoes PlanFor, so their
// spans mark that share as redone: the op's self times add up to one
// Analyze and one Patch, the work core.Rewrite does.
func probeRewrite(tr *tracing, b *bin.Binary, opts core.Options) error {
	rec, l := tr.rec, tr.l
	rec.beginOp()
	var passes time.Duration
	timed := func(layer, name string, fn func()) { passes += rec.timed(layer, name, fn) }
	var err error
	syms := b.FuncSymbols()
	if len(syms) == 0 {
		timed("cfg", "cfg.discover", func() { syms, err = cfg.DiscoverFunctions(b) })
		if err != nil {
			return err
		}
	}
	var pads *unwind.Table
	timed("cfg", "cfg.unwind_table", func() { pads, err = cfg.UnwindTable(b) })
	if err != nil {
		return err
	}
	var jt *analysis.JumpTables
	timed("analysis", "analysis.boundary_scan", func() { jt = analysis.NewJumpTables(b) })
	var ev *analysis.Evidence
	timed("analysis", "analysis.evidence_scan", func() { ev = analysis.ScanEvidence(b) })
	if opts.Mode == core.ModeFuncPtr && ev.Trusted {
		jt.UseMarks(ev.Marks)
	}
	text := b.Text()
	var funcs []*cfg.Func
	for _, sym := range syms {
		if sym.Size > 0 {
			timed("cfg", "cfg.build_func", func() { funcs = append(funcs, cfg.BuildFunc(b, text, sym, pads, jt)) })
		}
	}
	var g *cfg.Graph
	timed("cfg", "cfg.assemble", func() { g = cfg.Assemble(b, funcs) })
	blocks := 0
	for _, f := range g.Funcs {
		blocks += len(f.Blocks)
	}
	l.sample("cfg.blocks", float64(blocks))
	if opts.Mode == core.ModeFuncPtr {
		// An imprecise result is the refusal core.Analyze reports below.
		timed("analysis", "analysis.funcptr", func() { _, _ = ev.FuncPointers(b, g) })
	}

	var an *core.Analysis
	var analyze time.Duration
	sampleAllocs(l, "core.analyze_allocs", "", func() {
		analyze = rec.timed("core", "core.analyze", func() { an, err = core.Analyze(b, core.AnalysisConfig{Mode: opts.Mode}) })
	})
	rec.redoLast(passes)
	if refused(opts, err) {
		return nil
	}
	if err != nil {
		return err
	}
	l.sample("core.analyze_unattributed_ms", ms(analyze-passes))
	res, err := planAndPatch(rec, l, an, opts)
	if err != nil {
		return err
	}
	l.addStages(res.Metrics.Stages, false)
	l.sample("core.patch_funcs_reencoded", float64(res.Metrics.PatchFuncsReencoded))
	res.Recycle()
	return nil
}

// planAndPatch times PlanFor, then Patch, whose span marks the plan it
// redoes, and returns Patch's result.
func planAndPatch(rec *recorder, l *ledger, an *core.Analysis, opts core.Options) (*core.Result, error) {
	var err error
	plan := rec.timed("core", "core.plan", func() { _, err = an.PlanFor(opts) })
	if err != nil {
		return nil, err
	}
	var res *core.Result
	sampleAllocs(l, "core.patch_allocs", "core.patch_bytes", func() {
		rec.timed("core", "core.patch", func() { res, err = an.Patch(opts) })
	})
	if err != nil {
		return nil, err
	}
	rec.redoLast(plan)
	return res, nil
}
