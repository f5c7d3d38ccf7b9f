package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/core"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/service"
	"icfgpatch/internal/service/wire"
	"icfgpatch/internal/workload"
)

// detRun sets a workload up from seed, runs its warm-up and checks, and
// returns its deterministic numbers and a digest of its generated inputs.
func detRun(t *testing.T, name string, seed int64) (map[string]float64, string) {
	t.Helper()
	w := workloads[name]()
	defer w.close()
	if err := w.setup(seed); err != nil {
		t.Fatal(err)
	}
	l := newLedger()
	if err := w.warm(l); err != nil {
		t.Fatal(err)
	}
	q, failures := w.check(l)
	if len(failures) > 0 {
		t.Fatalf("%s seed %d: %d failed checks, first: %s", name, seed, len(failures), failures[0])
	}
	det := map[string]float64{
		"coverage_pct":       q.coveragePct,
		"size_increase_pct":  q.sizeIncreasePct,
		"funcptr_accept_pct": q.funcptrAcceptPct,
		"cycle_overhead_pct": q.cycleOverheadPct,
	}
	for _, k := range []string{"core.tramp_short", "core.tramp_long", "core.tramp_long_spill",
		"core.tramp_multi_hop", "core.tramp_trap", "core.emitted_bytes", "emu.instrs"} {
		det[k] = l.values[k]
	}
	return det, inputDigest(w)
}

// inputDigest hashes every binary a workload generated.
func inputDigest(w bench) string {
	h := sha256.New()
	switch w := w.(type) {
	case *coldFleet:
		for _, e := range w.entries {
			h.Write(e.bin.Marshal())
		}
	case *verifyExec:
		for _, vp := range w.progs {
			h.Write(vp.prog.Binary.Marshal())
		}
	case *diogenes:
		for _, hb := range w.hot {
			for _, v := range hb.versions {
				h.Write(v)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestDeterministicMetrics runs every workload twice on one seed and once
// on another: the deterministic metrics and output counts must repeat
// bit for bit, and the other seed must draw different inputs.
func TestDeterministicMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("sets every workload up three times")
	}
	for _, name := range []string{"cold-fleet", "diogenes-service", "verify-exec"} {
		t.Run(name, func(t *testing.T) {
			a, digestA := detRun(t, name, 7)
			b, digestB := detRun(t, name, 7)
			if digestA != digestB {
				t.Errorf("seed 7 drew different inputs on two runs")
			}
			for k, v := range a {
				if b[k] != v {
					t.Errorf("%s: %v then %v on the same seed", k, v, b[k])
				}
			}
			for _, k := range []string{"coverage_pct", "size_increase_pct", "funcptr_accept_pct", "cycle_overhead_pct", "core.emitted_bytes", "emu.instrs"} {
				if a[k] == 0 {
					t.Errorf("%s is 0", k)
				}
			}
			if _, digestC := detRun(t, name, 8); digestC == digestA {
				t.Errorf("seeds 7 and 8 drew the same inputs")
			}
		})
	}
}

// analysisMetric reports whether a ledger key belongs to the analysis
// layers.
func analysisMetric(k string) bool {
	return strings.HasPrefix(k, "cfg.") || strings.HasPrefix(k, "analysis.") ||
		strings.HasPrefix(k, "core.analyze") || strings.HasPrefix(k, "core.funcs_") || strings.HasPrefix(k, "units.")
}

func analysisSamples(l *ledger) int {
	n := 0
	for k, v := range l.samples {
		if analysisMetric(k) {
			n += len(v)
		}
	}
	for k := range l.values {
		if analysisMetric(k) {
			n++
		}
	}
	return n
}

// TestWarmHitsAddNoAnalysisTime sends one binary to a real service three
// ways — cold, with a new instrumentation set (analysis-store hit), and
// repeated exactly (result-cache hit) — and checks that only the cold
// reply adds to the analysis layers. The hits' replies still carry the
// cached analysis's stage timings; counting them would replay old work.
func TestWarmHitsAddNoAnalysisTime(t *testing.T) {
	p, err := workload.Generate(arch.X64, true, workload.Profile{Name: "hit", Seed: 3, Lang: "c", Funcs: 12, SwitchFrac: 0.3, Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := service.New(service.Config{Workers: 1, ResultEntries: 8})
	defer srv.Shutdown(context.Background())
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := &service.Client{BaseURL: hs.URL}
	raw := p.Binary.Marshal()
	all := core.Options{Mode: core.ModeJT, Request: blockCounters}
	one := all
	one.Request = instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadCounter, Funcs: []string{"fn001"}}

	l := newLedger()
	send := func(opts core.Options) *wire.Reply {
		t.Helper()
		_, rep, err := c.Rewrite(context.Background(), raw, opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.addReply(rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	if rep := send(all); rep.AnalysisHit || rep.ResultHit {
		t.Fatalf("first request was a hit: %+v", rep)
	}
	cold := analysisSamples(l)
	if len(l.samples["core.analyze_ms"]) != 1 || cold == 0 {
		t.Fatalf("the cold reply added %d analysis samples, core.analyze_ms %v", cold, l.samples["core.analyze_ms"])
	}
	rep := send(one)
	if !rep.AnalysisHit {
		t.Fatalf("second request missed the analysis store: %+v", rep)
	}
	if stages, _, _ := parseMetricsText(rep.MetricsText); !hasStage(stages, core.StageCFG) {
		t.Fatalf("the analysis hit's reply carries no cfg stage to replay: %q", rep.MetricsText)
	}
	rep = send(one)
	if !rep.ResultHit {
		t.Fatalf("third request missed the result cache: %+v", rep)
	}
	if got := analysisSamples(l); got != cold {
		t.Errorf("warm hits added %d analysis-layer samples", got-cold)
	}
	if n := len(l.samples["core.patch_ms"]); n != 2 {
		t.Errorf("core.patch_ms has %d samples, want 2 (the result-cache hit ran no patch)", n)
	}

	// The in-process warm path: a Patch against a cached analysis.
	an, err := core.Analyze(p.Binary, core.AnalysisConfig{Mode: core.ModeJT})
	if err != nil {
		t.Fatal(err)
	}
	res, err := an.Patch(all)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Recycle()
	l.addStages(res.Metrics.Stages, false)
	if got := analysisSamples(l); got != cold {
		t.Errorf("a warm Patch added %d analysis-layer samples", got-cold)
	}
}

func hasStage(stages []core.StageMetric, name string) bool {
	for _, s := range stages {
		if s.Name == name && s.Wall > 0 {
			return true
		}
	}
	return false
}

// benchmarkFile mirrors the parts of BENCHMARK.json the code must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(names)
	sort.Strings(want)
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Errorf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	same := func(kind string, file []struct{ Name, Unit string }, code []metricDef) {
		if len(file) != len(code) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(file), len(code))
			return
		}
		for i := range code {
			if file[i].Name != code[i].name || file[i].Unit != code[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the command prints %s (%s)",
					kind, i, file[i].Name, file[i].Unit, code[i].name, code[i].unit)
			}
		}
	}
	same("end_to_end", f.EndToEnd, endToEnd)
	same("per_layer", f.PerLayer, perLayer)
}

// TestCompareRefusesOtherMachines: records from different CPU counts are
// never compared silently.
func TestCompareRefusesOtherMachines(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, nproc int) string {
		rec := record{Stamp: stamp{NumCPU: nproc, GOMAXPROCS: nproc, GoVersion: "go1.22", GOARCH: "amd64", Workload: "cold-fleet", Seed: 1, Seconds: 10},
			Metrics: map[string]metric{"ops_per_s": {100, "op/s"}}}
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	one, two, alsoTwo := write("a", 1), write("b", 2), write("c", 2)
	if code := compareMain([]string{one, two}); code != 2 {
		t.Errorf("1-CPU vs 2-CPU records: exit %d, want 2", code)
	}
	if code := compareMain([]string{two, alsoTwo}); code != 0 {
		t.Errorf("records from one machine: exit %d, want 0", code)
	}
}

func TestPercentile(t *testing.T) {
	v := make([]float64, 1000)
	for i := range v {
		v[i] = float64(1000 - i)
	}
	if p, beyond := percentile(v, 0.99); p != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v with %d beyond, want 990 with 10", p, beyond)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// spanAt builds a closed span from millisecond offsets.
func spanAt(layer, name string, op int64, parent int, startMS, endMS, redoneMS float64) span {
	ns := func(v float64) int64 { return int64(v * float64(time.Millisecond)) }
	return span{Name: name, Layer: layer, Op: op, Parent: parent, Start: ns(startMS), End: ns(endMS), Redone: ns(redoneMS)}
}

func selfSum(vals map[string]float64) float64 {
	var sum float64
	for _, layer := range traceLayers {
		sum += vals["self."+layer+"_ms"]
	}
	return sum
}

// TestSelfTimesCountEachLayerOnce: the window sees a cold rewrite as one
// core span, which holds the cfg and analysis work the probe splits out;
// a service request's server time holds the patch and encoding the probe
// times. Each layer's self time must come from one source, so that the
// layers of an operation add up to no more than the operation.
func TestSelfTimesCountEachLayerOnce(t *testing.T) {
	// A cold-fleet op: a 10 ms rewrite, then marshal and unmarshal, 12 ms.
	window := &trace{recs: []*recorder{{spans: []span{
		spanAt("core", "core.rewrite", 1, -1, 0, 10, 0),
		spanAt("bin", "bin.marshal", 1, -1, 10, 11, 0),
		spanAt("bin", "bin.unmarshal", 1, -1, 11, 12, 0),
	}}}}
	// The probe's split of the same rewrite: 4 ms of public passes, which
	// Analyze (6 ms) redoes, and a plan that Patch redoes.
	probe := &trace{recs: []*recorder{{spans: []span{
		spanAt("cfg", "cfg.unwind_table", 2, -1, 0, 1, 0),
		spanAt("cfg", "cfg.build_func", 2, -1, 1, 3, 0),
		spanAt("analysis", "analysis.boundary_scan", 2, -1, 3, 4, 0),
		spanAt("core", "core.analyze", 2, -1, 4, 10, 4),
		spanAt("core", "core.plan", 2, -1, 10, 11, 0),
		spanAt("core", "core.patch", 2, -1, 11, 14, 1),
	}}}}
	vals := layerValues(newLedger(), window, probe, 0)
	want := map[string]float64{"self.cfg_ms": 3, "self.analysis_ms": 1, "self.core_ms": 5, "self.bin_ms": 2}
	for name, v := range want {
		if math.Abs(vals[name]-v) > 1e-9 {
			t.Errorf("cold-fleet %s = %v, want %v", name, vals[name], v)
		}
	}
	if sum := selfSum(vals); sum > 12+1e-9 {
		t.Errorf("cold-fleet self times add up to %v ms, more than the 12 ms op", sum)
	}

	// A service request: 10 ms at the client, 8 ms of it in the server.
	window = &trace{recs: []*recorder{{spans: []span{
		spanAt("wire", "service.client_rewrite", 1, -1, 0, 10, 0),
		spanAt("service", "service.server", 1, 0, 2, 10, 0),
	}}}}
	l := newLedger()
	addRequestSelf(l, dioSample{clientMS: 10, serverMS: 8, patchMS: 5, analysisHit: true}, 0.5, 0.5, 1)
	vals = layerValues(l, window, &trace{}, 0)
	want = map[string]float64{"self.wire_ms": 1, "self.service_ms": 2, "self.core_ms": 5, "self.bin_ms": 1.5, "self.store_ms": 0.5}
	for name, v := range want {
		if math.Abs(vals[name]-v) > 1e-9 {
			t.Errorf("service %s = %v, want %v", name, vals[name], v)
		}
	}
	if sum := selfSum(vals); math.Abs(sum-10) > 1e-9 {
		t.Errorf("service self times add up to %v ms, want the 10 ms request", sum)
	}
}

// TestProbeSelfTimesAddUpToOneRewrite runs the probe on a real program:
// its layers' self times must add up to no more than the one Analyze and
// one Patch the probed rewrite stands for, although the probe runs the
// public passes and PlanFor a second time.
func TestProbeSelfTimesAddUpToOneRewrite(t *testing.T) {
	p, err := workload.Generate(arch.X64, true, workload.Profile{Name: "probe", Seed: 5, Lang: "c", Funcs: 24, SwitchFrac: 0.3, Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	tr := &tracing{rec: newRecorder(time.Now()), l: newLedger()}
	if err := probeRewrite(tr, p.Binary, core.Options{Mode: core.ModeJT, Request: blockEmpty}); err != nil {
		t.Fatal(err)
	}
	var analyze, patch, passes, plan time.Duration
	for _, s := range tr.rec.spans {
		switch {
		case s.Name == "core.analyze":
			analyze += s.dur()
		case s.Name == "core.patch":
			patch += s.dur()
		case s.Name == "core.plan":
			plan += s.dur()
		default:
			passes += s.dur()
		}
	}
	// A pass sum longer than Analyze, or a plan longer than Patch, is
	// noise; the probe then counts the longer one.
	op := max(analyze, passes) + max(patch, plan)
	vals := layerValues(tr.l, &trace{}, &trace{recs: []*recorder{tr.rec}}, 0)
	if vals["self.cfg_ms"] <= 0 || vals["self.analysis_ms"] <= 0 || vals["self.core_ms"] <= 0 {
		t.Fatalf("probe split no cfg, analysis or core time: %v %v %v", vals["self.cfg_ms"], vals["self.analysis_ms"], vals["self.core_ms"])
	}
	if sum := selfSum(vals); sum > ms(op)+1e-6 {
		t.Errorf("probe self times add up to %.3f ms, more than the %.3f ms of Analyze and Patch", sum, ms(op))
	}
}

// TestWarmFailuresAreChecked: an input whose rewrite fails in the untimed
// pass must fail the run's checks, whether or not the timed window gets
// to it again. core refuses a stripped Go-runtime binary, which makes a
// real failing input.
func TestWarmFailuresAreChecked(t *testing.T) {
	p, err := workload.GoTable(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	stripped := p.Binary.Clone()
	stripped.Symbols = nil
	cf := &coldFleet{entries: []fleetEntry{{prog: p, bin: stripped, stripped: true, mode: core.ModeJT}}}
	ve := &verifyExec{progs: []*verifyProg{{prog: &workload.Program{Profile: p.Profile, Binary: stripped}}}}
	for _, w := range []bench{cf, ve} {
		l := newLedger()
		if err := w.warm(l); err != nil {
			t.Fatal(err)
		}
		_, failures := w.check(l)
		reported := false
		for _, f := range failures {
			reported = reported || strings.Contains(f, " jt: ")
		}
		if !reported {
			t.Errorf("%T: the failed jt warm-up rewrite is not among the failed checks %q", w, failures)
		}
	}
}
