package icfgpatch_test

import (
	"runtime"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/workload"
)

// Allocation budgets for the hot paths on the libxul-like X64 workload
// (jt mode, empty payload at block entries), measured on the serial
// path with the world pinned to one proc. Each is the measured figure
// with 30% headroom: warm Patch 2,630 allocs and 700 KB per op, warm
// Analyze 46,706 allocs, delta Analyze 8,410. A warm Patch's figures
// depend on what the emit-buffer and item-slab pools hold when the test
// starts: a second run in the same process (-count=2) measures 2,774
// allocs and 1.27 MB, so the bytes budget is set from that. Exceeding a
// budget means a real regression in allocation discipline: re-examine
// the change, or move the constant deliberately and say why.
const (
	budgetWarmPatchAllocs    = 3419
	budgetWarmPatchBytes     = 1_645_500
	budgetWarmAnalyzeAllocs  = 60712
	budgetDeltaAnalyzeAllocs = 10933
)

// TestAllocBudget asserts the hot paths stay inside their allocation
// budgets.
func TestAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if testing.Short() {
		t.Skip("skipping allocation measurement in short mode")
	}
	prog, err := workload.LibxulCached(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	v1 := prog.Binary
	v2, _, err := workload.MutateVersion(v1, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	an, err := core.Analyze(v1, core.AnalysisConfig{Mode: core.ModeJT})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{Mode: core.ModeJT, Request: blockEmpty()}
	const runs = 3

	patchAllocs, patchBytes, err := measureAllocs(runs, true, nil, func(any) error {
		res, err := an.Patch(opts)
		if err != nil {
			return err
		}
		res.Recycle()
		return nil
	})
	if err != nil {
		t.Fatalf("warm patch: %v", err)
	}
	analyzeAllocs, _, err := measureAllocs(runs, true, nil, func(any) error {
		_, err := core.Analyze(v1, core.AnalysisConfig{Mode: core.ModeJT})
		return err
	})
	if err != nil {
		t.Fatalf("warm analyze: %v", err)
	}
	// The first delta is the measurement, so there is no warm-up call:
	// each run gets a fresh unit store seeded with v1.
	deltaAllocs, _, err := measureAllocs(runs, false,
		func() (any, error) {
			units := core.NewUnitStore(0)
			if _, err := core.Analyze(v1, core.AnalysisConfig{Mode: core.ModeJT, Units: units}); err != nil {
				return nil, err
			}
			return units, nil
		},
		func(units any) error {
			_, err := core.Analyze(v2, core.AnalysisConfig{Mode: core.ModeJT, Units: units.(*core.UnitStore)})
			return err
		})
	if err != nil {
		t.Fatalf("delta analyze: %v", err)
	}

	for _, c := range []struct {
		name        string
		got, budget float64
	}{
		{"warm_patch allocs/op", patchAllocs, budgetWarmPatchAllocs},
		{"warm_patch bytes/op", patchBytes, budgetWarmPatchBytes},
		{"warm_analyze allocs/op", analyzeAllocs, budgetWarmAnalyzeAllocs},
		{"delta_analyze allocs/op", deltaAllocs, budgetDeltaAnalyzeAllocs},
	} {
		if c.got > c.budget {
			t.Errorf("%s: %.0f exceeds budget %.0f", c.name, c.got, c.budget)
		} else {
			t.Logf("%s: %.0f within budget %.0f", c.name, c.got, c.budget)
		}
	}
}

// measureAllocs reports mean allocations and bytes per run of fn, with
// the world pinned to one proc (the testing.AllocsPerRun discipline).
// warmup runs fn once, unmeasured, so one-time lazy initialisation does
// not pollute the steady state; setup (optional) produces fresh per-run
// state outside the measured window.
func measureAllocs(runs int, warmup bool, setup func() (any, error), fn func(any) error) (allocs, bytes float64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	newState := func() (any, error) {
		if setup == nil {
			return nil, nil
		}
		return setup()
	}
	if warmup {
		st, err := newState()
		if err != nil {
			return 0, 0, err
		}
		if err := fn(st); err != nil {
			return 0, 0, err
		}
	}
	var totalMallocs, totalBytes uint64
	for i := 0; i < runs; i++ {
		st, err := newState()
		if err != nil {
			return 0, 0, err
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := fn(st); err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&after)
		totalMallocs += after.Mallocs - before.Mallocs
		totalBytes += after.TotalAlloc - before.TotalAlloc
	}
	return float64(totalMallocs) / float64(runs), float64(totalBytes) / float64(runs), nil
}
