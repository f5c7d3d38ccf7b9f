package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/workload"
)

// coldFleet rewrites a pool of distinct programs cold, one after another,
// the way a fleet rewriter meets binaries it has never seen. Analysis is
// most of each operation and no cache applies, so an analysis change
// shows here; diogenes-service, which mostly patches cached analyses,
// predicts no change for it.
type coldFleet struct {
	seed     int64
	entries  []fleetEntry
	next     int
	warmErrs []string // the warm-up's failed rewrites, which check reports
}

// fleetEntry is one (program, mode) operation of the pool.
type fleetEntry struct {
	prog     *workload.Program
	bin      *bin.Binary // prog's binary, or a copy with its symbols stripped
	stripped bool
	mode     core.Mode
	stats    *core.Stats // the warm-up rewrite's; nil if it was refused or failed
}

func (e *fleetEntry) name() string {
	s := e.prog.Profile.Name
	if e.prog.Profile.CFI {
		s += "-cfi"
	}
	if e.stripped {
		s += "-stripped"
	}
	return s
}

// Pool shape: for every ISA, family and build variant (plain, CFI,
// stripped; no stripped Go-runtime builds), fleetPerVariant programs whose
// .text sizes cover [fleetMinText, fleetMaxText) bytes on a log scale, each
// rewritten in all three modes. The programs run about fleetInstrs
// instructions when the check executes them.
const (
	fleetPerVariant = 5
	fleetMinText    = 2 << 10
	fleetMaxText    = 24 << 10
	fleetInstrs     = 5_000
)

var fleetModes = []core.Mode{core.ModeDir, core.ModeJT, core.ModeFuncPtr}

func (w *coldFleet) setup(seed int64) error {
	w.seed = seed
	r := rand.New(rand.NewSource(seed))
	for _, a := range arch.All() {
		for f := family(0); f < numFamilies; f++ {
			for variant := 0; variant < 3; variant++ {
				if variant == 2 && f == famDocker {
					// core refuses a stripped Go-runtime binary by design: its
					// traceback support instruments runtime.findfunc, found by
					// symbol ("go binary lacks runtime.findfunc symbol").
					continue
				}
				for _, text := range spread(fleetPerVariant, fleetMinText, fleetMaxText) {
					p, err := sizedProgram(r, f, a, text, fleetInstrs, variant == 1)
					if err != nil {
						return err
					}
					b := p.Binary
					if variant == 2 {
						b = b.Clone()
						b.Symbols = nil
					}
					for _, m := range fleetModes {
						w.entries = append(w.entries, fleetEntry{prog: p, bin: b, stripped: variant == 2, mode: m})
					}
				}
			}
		}
	}
	r.Shuffle(len(w.entries), func(i, j int) { w.entries[i], w.entries[j] = w.entries[j], w.entries[i] })
	return nil
}

func (w *coldFleet) callers() int { return 1 }

func (w *coldFleet) op(_ int, tr *tracing) error {
	e := &w.entries[w.next%len(w.entries)]
	w.next++
	_, err := e.rewrite(tr)
	return err
}

// rewrite is one operation: a cold rewrite of the entry, then the output image's
// round trip through the serialised format, which must reproduce it and
// validate. It returns the reloaded image, nil on a sound refusal.
func (e *fleetEntry) rewrite(tr *tracing) (*rewritten, error) {
	var rec *recorder
	if tr != nil {
		rec = tr.rec
	}
	opts := core.Options{Mode: e.mode, Request: blockEmpty}
	s := rec.start("core", "core.rewrite")
	res, err := core.Rewrite(e.bin, opts)
	rec.end(s)
	if refused(opts, err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", e.name(), e.mode, err)
	}
	if tr != nil {
		tr.l.addStages(res.Metrics.Stages, true)
		tr.l.addUnits(res.Metrics.FuncsReused, res.Metrics.FuncsRecomputed)
	}
	s = rec.start("bin", "bin.marshal")
	img := res.Binary.Marshal()
	rec.end(s)
	out := &rewritten{stats: res.Stats, scratchFree: res.Metrics.ScratchBytesFree}
	res.Recycle()
	s = rec.start("bin", "bin.unmarshal")
	out.bin, err = bin.Unmarshal(img)
	rec.end(s)
	if err == nil {
		err = out.bin.Validate()
	}
	if err == nil && !bytes.Equal(out.bin.Marshal(), img) {
		err = errors.New("image changed in a marshal round trip")
	}
	if err != nil {
		return nil, fmt.Errorf("%s %s: output image: %w", e.name(), e.mode, err)
	}
	return out, nil
}

// rewritten is a checked rewrite result.
type rewritten struct {
	bin         *bin.Binary
	stats       core.Stats
	scratchFree uint64
}

func (w *coldFleet) warm(l *ledger) error {
	for i := range w.entries {
		e := &w.entries[i]
		out, err := e.rewrite(nil)
		if err != nil {
			w.warmErrs = append(w.warmErrs, err.Error())
			continue
		}
		if out == nil {
			continue
		}
		e.stats = &out.stats
		l.addOutput(out.stats, out.scratchFree, instrBytes(out.bin))
	}
	return nil
}

// check runs the accepted entries against their originals in the
// emulator: outputs must match. Every jt entry runs, and gives
// cycle_overhead_pct; a seeded quarter of the dir and func-ptr entries
// runs too, as output checks only, since dir mode's trap trampolines make
// a program's overhead swing with which blocks happen to be hot. The
// other quality metrics come from the warm-up rewrites, which cover
// every entry once whatever the window reached; a warm-up rewrite that
// failed is a failed check, so every run charges every failing entry.
func (w *coldFleet) check(l *ledger) (quality, []string) {
	var q quality
	failures := append([]string(nil), w.warmErrs...)
	var cover, sizes, cycles []float64
	var fpTried, fpAccepted float64
	orig := map[*workload.Program]emu.Result{}
	r := rand.New(rand.NewSource(w.seed))
	for i := range w.entries {
		e := &w.entries[i]
		if e.mode == core.ModeFuncPtr {
			fpTried++
		}
		if e.stats == nil {
			continue
		}
		if e.mode == core.ModeFuncPtr {
			fpAccepted++
		}
		cover = append(cover, e.stats.Coverage())
		sizes = append(sizes, 1+e.stats.SizeIncrease())
		if e.mode != core.ModeJT && r.Intn(4) != 0 {
			continue
		}
		want, ok := orig[e.prog]
		if !ok {
			var err error
			want, _, err = execute(nil, e.prog.Binary, commandArg(e.prog), e.prog.Profile.CFI, false, nil)
			if err != nil {
				failures = append(failures, fmt.Sprintf("%s: original run: %v", e.name(), err))
				continue
			}
			orig[e.prog] = want
		}
		ratio, err := e.execCheck(want, l)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		if e.mode == core.ModeJT {
			cycles = append(cycles, ratio)
		}
	}
	q.coveragePct = mean(cover) * 100
	q.sizeIncreasePct = geoMeanIncreasePct(sizes)
	if fpTried > 0 {
		q.funcptrAcceptPct = fpAccepted / fpTried * 100
	}
	q.cycleOverheadPct = geoMeanIncreasePct(cycles)
	return q, failures
}

// execCheck runs the entry's rewritten image and compares its output with the
// original run's, returning the rewritten/original cycle ratio.
func (e *fleetEntry) execCheck(want emu.Result, l *ledger) (float64, error) {
	out, err := e.rewrite(nil)
	if err != nil {
		return 0, err
	}
	if out == nil {
		return 0, fmt.Errorf("%s %s: accepted in warm-up, refused on re-run", e.name(), e.mode)
	}
	got, _, err := execute(nil, out.bin, commandArg(e.prog), e.prog.Profile.CFI, true, nil)
	if err != nil {
		return 0, fmt.Errorf("%s %s: rewritten run: %w", e.name(), e.mode, err)
	}
	if !bytes.Equal(got.Output, want.Output) {
		return 0, fmt.Errorf("%s %s: output %q, original printed %q", e.name(), e.mode, got.Output, want.Output)
	}
	l.addRun(got)
	return float64(got.Cycles) / float64(want.Cycles), nil
}

// probe splits the first entries of the seeded pool order into layers.
func (w *coldFleet) probe(tr *tracing) error {
	for i := 0; i < min(probeInputs, len(w.entries)); i++ {
		e := &w.entries[i]
		if err := probeRewrite(tr, e.bin, core.Options{Mode: e.mode, Request: blockEmpty}); err != nil {
			return fmt.Errorf("%s %s: %w", e.name(), e.mode, err)
		}
	}
	return nil
}

// probeInputs is how many inputs a traced run splits into layers.
const probeInputs = 24

func (w *coldFleet) close() {}
