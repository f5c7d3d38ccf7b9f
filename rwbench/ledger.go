package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/service/wire"
)

// ledger collects one run's per-layer numbers. Timings are per-operation
// samples, reported as medians. Work counts are summed over the
// workload's distinct inputs, so a seed fixes them exactly.
type ledger struct {
	mu      sync.Mutex
	samples map[string][]float64
	values  map[string]float64
}

func newLedger() *ledger {
	return &ledger{samples: map[string][]float64{}, values: map[string]float64{}}
}

func (l *ledger) sample(name string, v float64) {
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

func (l *ledger) add(name string, v float64) {
	l.mu.Lock()
	l.values[name] += v
	l.mu.Unlock()
}

// analysisStages are the stages core.Analyze records; the others are
// Patch's.
var analysisStages = map[string]bool{core.StageCFG: true, core.StageFuncPtr: true}

// addStages records a rewrite's stage timings. The analysis stages count
// only when analysis ran for this operation: a Patch against a cached
// analysis copies that analysis's original timings into its metrics, and
// taking them again would replay old work as new.
func (l *ledger) addStages(stages []core.StageMetric, analysisRan bool) {
	for _, s := range stages {
		if !analysisStages[s.Name] {
			l.sample("core.stage."+s.Name+"_ms", ms(s.Wall))
		}
	}
	analyze, patch := splitStages(stages)
	l.sample("core.patch_ms", ms(patch))
	if analysisRan {
		l.sample("core.analyze_ms", ms(analyze))
	}
}

// splitStages sums a rewrite's stage timings into analysis and patch.
func splitStages(stages []core.StageMetric) (analyze, patch time.Duration) {
	for _, s := range stages {
		if analysisStages[s.Name] {
			analyze += s.Wall
		} else {
			patch += s.Wall
		}
	}
	return analyze, patch
}

// addReply records what a service reply says about the server's work.
// A result-cache hit replays a whole earlier record and adds nothing; an
// analysis-store hit adds only its patch; the analysis layer's numbers
// come only from replies whose analysis ran.
func (l *ledger) addReply(rep *wire.Reply) error {
	if rep.ResultHit {
		return nil
	}
	stages, counters, err := parseMetricsText(rep.MetricsText)
	if err != nil {
		return err
	}
	analysisRan := !rep.AnalysisHit
	l.addStages(stages, analysisRan)
	l.sample("core.patch_funcs_reencoded", counters["patch-reencoded"])
	if analysisRan {
		l.addUnits(rep.FuncsReused, rep.FuncsRecomputed)
	}
	return nil
}

// addUnits records how many function units an analysis that ran reused
// from the unit store and how many it recomputed.
func (l *ledger) addUnits(reused, recomputed int) {
	l.sample("core.funcs_recomputed", float64(recomputed))
	l.sample("core.funcs_reused", float64(reused))
	l.add("units.reused", float64(reused))
	l.add("units.recomputed", float64(recomputed))
}

// parseMetricsText reads the stage timings and counters back from
// core.Metrics.Render's two-line form.
func parseMetricsText(text string) ([]core.StageMetric, map[string]float64, error) {
	var stages []core.StageMetric
	counters := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		head, rest, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		// "scratch-bytes=N (free M)" reads as scratch-free=M.
		rest = strings.NewReplacer("(free ", "scratch-free=", ")", "").Replace(rest)
		for _, f := range strings.Fields(rest) {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				continue
			}
			switch head {
			case "stages":
				if k == "total" {
					continue
				}
				d, err := time.ParseDuration(v)
				if err != nil {
					return nil, nil, fmt.Errorf("reply metrics: stage %s: %w", k, err)
				}
				stages = append(stages, core.StageMetric{Name: k, Wall: d})
			case "counters":
				if n, err := strconv.ParseFloat(v, 64); err == nil {
					counters[k] = n
				}
			}
		}
	}
	if len(stages) == 0 {
		return nil, nil, fmt.Errorf("reply metrics carry no stages: %q", text)
	}
	return stages, counters, nil
}

// addOutput records the deterministic shape of one distinct rewrite:
// trampolines by class, scratch left unused, and emitted code size.
func (l *ledger) addOutput(st core.Stats, scratchFree uint64, instrBytes int) {
	names := map[arch.TrampolineClass]string{
		arch.TrampShort:     "core.tramp_short",
		arch.TrampLong:      "core.tramp_long",
		arch.TrampLongSpill: "core.tramp_long_spill",
		arch.TrampMulti:     "core.tramp_multi_hop",
		arch.TrampTrap:      "core.tramp_trap",
	}
	for c, name := range names {
		l.add(name, float64(st.Trampolines[c]))
	}
	l.add("core.scratch_bytes_free", float64(scratchFree))
	l.add("core.emitted_bytes", float64(instrBytes))
}

// instrBytes is the size of a rewritten image's relocated-code section.
func instrBytes(b *bin.Binary) int {
	if s := b.Section(bin.SecInstr); s != nil {
		return len(s.Data)
	}
	return 0
}

// addRun records the deterministic counts of one distinct emulated run
// of a rewritten binary.
func (l *ledger) addRun(r emu.Result) {
	l.add("emu.instrs", float64(r.Instrs))
	l.add("emu.unwinds", float64(r.Unwinds))
	l.add("emu.walks", float64(r.Walks))
	l.add("emu.icache_misses", float64(r.ICMiss))
	l.add("emu.icache_refs", float64(r.ICRef))
}

// ratio sets name to num/(num+rest), or 0 when both are 0.
func (l *ledger) ratio(name string, num, rest float64) {
	if num+rest > 0 {
		l.add(name, num/(num+rest))
	}
}
