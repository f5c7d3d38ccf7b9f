package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/workload"
)

// verifyExec rewrites programs with block-entry counters and runs every
// result in the emulator: its output must equal the original's and each
// counter must equal its block's execution count. The emulator is most of
// each operation, so emulator work shows here and nowhere else, and the
// runs give the paper's cycle-overhead metric.
type verifyExec struct {
	progs    []*verifyProg
	next     int
	warmErrs []string // the warm-up's failed checks, which check reports
}

// verifyProg is one program with its reference run, computed in setup.
type verifyProg struct {
	prog  *workload.Program
	arg   uint64
	cet   bool
	want  emu.Result // the original's run, counting every instrumented block
	ratio float64    // rewritten/original cycles of the warm-up run; 0 if it failed
	stats core.Stats // the warm-up rewrite's
}

// Pool shape per ISA: SPEC-like programs plus Go-runtime programs (half of
// them CFI builds, run under CET enforcement) and libxul-like C++
// exception programs, so that traceback walks and .ra_map translation run.
var verifyMix = []struct {
	fam family
	n   int
	cfi bool
}{
	{famSPEC, 10, false},
	{famDocker, 2, false},
	{famDocker, 2, true},
	{famLibxul, 2, false},
}

func (w *verifyExec) setup(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	for _, a := range arch.All() {
		for _, m := range verifyMix {
			for _, text := range spread(m.n, verifyMinText, verifyMaxText) {
				p, err := sizedProgram(r, m.fam, a, text, verifyInstrs, m.cfi)
				if err != nil {
					return err
				}
				vp := &verifyProg{prog: p, arg: commandArg(p), cet: m.cfi}
				if err := vp.reference(); err != nil {
					return err
				}
				w.progs = append(w.progs, vp)
			}
		}
	}
	r.Shuffle(len(w.progs), func(i, j int) { w.progs[i], w.progs[j] = w.progs[j], w.progs[i] })
	return nil
}

// Program sizes: .text spread over [verifyMinText, verifyMaxText) bytes on
// a log scale, each run executing about verifyInstrs instructions, so that
// the emulator's share of an operation is the same whatever the seed draws.
const (
	verifyMinText = 2 << 10
	verifyMaxText = 8 << 10
	verifyInstrs  = 8_000
)

// reference runs the original program once, counting executions of every
// block the counter request instruments.
func (vp *verifyProg) reference() error {
	res, err := core.Rewrite(vp.prog.Binary, core.Options{Mode: core.ModeJT, Request: blockCounters})
	if err != nil {
		return fmt.Errorf("%s: %w", vp.prog.Profile.Name, err)
	}
	points := make([]uint64, 0, len(res.CounterCells))
	for p := range res.CounterCells {
		points = append(points, p)
	}
	res.Recycle()
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	vp.want, _, err = execute(nil, vp.prog.Binary, vp.arg, vp.cet, false, points)
	if err != nil {
		return fmt.Errorf("%s: original run: %w", vp.prog.Profile.Name, err)
	}
	return nil
}

func (w *verifyExec) callers() int { return 1 }

func (w *verifyExec) op(_ int, tr *tracing) error {
	vp := w.progs[w.next%len(w.progs)]
	w.next++
	_, err := vp.verify(core.ModeJT, tr)
	return err
}

// verified is one checked rewrite-and-run.
type verified struct {
	run         emu.Result
	stats       core.Stats
	scratchFree uint64
	instrBytes  int
}

// verify rewrites the program in mode with block counters, runs the result with
// the runtime library preloaded, and checks output and counters against
// the reference. On a sound func-ptr refusal it returns nil.
func (vp *verifyProg) verify(mode core.Mode, tr *tracing) (*verified, error) {
	var rec *recorder
	if tr != nil {
		rec = tr.rec
	}
	name := vp.prog.Profile.Name
	opts := core.Options{Mode: mode, Request: blockCounters}
	s := rec.start("core", "core.rewrite")
	res, err := core.Rewrite(vp.prog.Binary, opts)
	rec.end(s)
	if refused(opts, err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", name, mode, err)
	}
	defer res.Recycle()
	if tr != nil {
		tr.l.addStages(res.Metrics.Stages, true)
		tr.l.addUnits(res.Metrics.FuncsReused, res.Metrics.FuncsRecomputed)
	}
	got, m, err := execute(rec, res.Binary, vp.arg, vp.cet, true, nil)
	if err != nil {
		return nil, fmt.Errorf("%s %s: rewritten run: %w", name, mode, err)
	}
	if tr != nil {
		if run := rec.spans[len(rec.spans)-1]; run.dur() > 0 {
			tr.l.sample("emu.minstr_per_s", float64(got.Instrs)/run.dur().Seconds()/1e6)
		}
	}
	if !bytes.Equal(got.Output, vp.want.Output) {
		return nil, fmt.Errorf("%s %s: output %q, original printed %q", name, mode, got.Output, vp.want.Output)
	}
	if err := checkCounters(m, res.CounterCells, vp.want.Profile); err != nil {
		return nil, fmt.Errorf("%s %s: %w", name, mode, err)
	}
	return &verified{run: got, stats: res.Stats, scratchFree: res.Metrics.ScratchBytesFree, instrBytes: instrBytes(res.Binary)}, nil
}

func (w *verifyExec) warm(l *ledger) error {
	for _, vp := range w.progs {
		v, err := vp.verify(core.ModeJT, nil)
		if err != nil {
			w.warmErrs = append(w.warmErrs, err.Error())
			continue
		}
		vp.ratio = float64(v.run.Cycles) / float64(vp.want.Cycles)
		vp.stats = v.stats
		l.addRun(v.run)
		l.addOutput(v.stats, v.scratchFree, v.instrBytes)
	}
	return nil
}

// check reports the warm-up's failed jt checks, so every run charges
// every failing program, and rewrites every program in func-ptr mode: an
// accepted rewrite must pass the same output and counter checks.
func (w *verifyExec) check(l *ledger) (quality, []string) {
	var q quality
	failures := append([]string(nil), w.warmErrs...)
	var cover, sizes, cycles []float64
	accepted := 0
	for _, vp := range w.progs {
		if vp.ratio > 0 {
			cover = append(cover, vp.stats.Coverage())
			sizes = append(sizes, 1+vp.stats.SizeIncrease())
			cycles = append(cycles, vp.ratio)
		}
		v, err := vp.verify(core.ModeFuncPtr, nil)
		if err != nil {
			failures = append(failures, err.Error())
		} else if v != nil {
			accepted++
		}
	}
	q.coveragePct = mean(cover) * 100
	q.sizeIncreasePct = geoMeanIncreasePct(sizes)
	q.cycleOverheadPct = geoMeanIncreasePct(cycles)
	q.funcptrAcceptPct = float64(accepted) / float64(len(w.progs)) * 100
	return q, failures
}

// probe splits the first programs of the seeded pool order into layers.
func (w *verifyExec) probe(tr *tracing) error {
	for i := 0; i < min(probeInputs, len(w.progs)); i++ {
		vp := w.progs[i]
		if err := probeRewrite(tr, vp.prog.Binary, core.Options{Mode: core.ModeJT, Request: blockCounters}); err != nil {
			return fmt.Errorf("%s: %w", vp.prog.Profile.Name, err)
		}
	}
	return nil
}

func (w *verifyExec) close() {}
