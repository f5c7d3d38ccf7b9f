// Command rwbench is the rewriter's end-to-end benchmark. It runs one of
// three workloads for a fixed time, with inputs generated from a seed,
// checks every output, and prints one JSON result as its last line:
//
//	rwbench --workload cold-fleet --seed 1 --seconds 10 --trace 0
//
// The workloads:
//
//   - cold-fleet: one caller rewrites a pool of distinct generated
//     programs cold with core.Rewrite in dir, jt and func-ptr modes.
//     Analysis is most of each operation and no cache applies.
//   - diogenes-service: two closed-loop clients send Diogenes-style
//     instrumentation requests to an in-process service over loopback
//     HTTP. Most requests hit the analysis store, some repeat exactly,
//     and every K-th request for a binary carries its next point release.
//   - verify-exec: one caller rewrites programs with block counters and
//     runs each result in the emulator; output and every counter must
//     match the original's run.
//
// With --trace 0 the result holds the end-to-end metrics of
// BENCHMARK.json, measured untraced. With --trace 1 it holds the
// per-layer ledger: spans the benchmark records around its own calls
// into each layer's public functions, plus counts read from results.
// The line before the result is a record that stamps the machine, the
// seed and the sample count behind every percentile; `rwbench compare
// old.json new.json` compares two such records and refuses records
// taken on different machines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit string
}

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "op/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"coverage_pct", "%"},
	{"size_increase_pct", "%"},
	{"funcptr_accept_pct", "%"},
	{"cycle_overhead_pct", "%"},
}

// traceLayers are the layers whose self time a traced run reports. The
// sched and storage layers sit inside the server, where the benchmark
// has no call boundary to wrap; their numbers are counters.
var traceLayers = []string{"bin", "store", "wire", "service", "core", "cfg", "analysis", "rtlib", "emu"}

// perLayer lists the metrics of a traced run, in BENCHMARK.json order.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"cfg.discover_ms", "ms"},
		{"cfg.unwind_table_ms", "ms"},
		{"cfg.build_func_ms", "ms"},
		{"cfg.assemble_ms", "ms"},
		{"cfg.blocks", "count"},
		{"analysis.boundary_scan_ms", "ms"},
		{"analysis.evidence_scan_ms", "ms"},
		{"analysis.funcptr_ms", "ms"},
		{"core.analyze_ms", "ms"},
		{"core.analyze_unattributed_ms", "ms"},
		{"core.analyze_allocs", "count"},
		{"core.funcs_recomputed", "count"},
		{"core.funcs_reused", "count"},
		{"core.patch_ms", "ms"},
		{"core.plan_ms", "ms"},
		{"core.stage.plan_ms", "ms"},
		{"core.stage.layout_ms", "ms"},
		{"core.stage.emit_ms", "ms"},
		{"core.stage.trampolines_ms", "ms"},
		{"core.stage.pointer-rewrite_ms", "ms"},
		{"core.stage.finalize_ms", "ms"},
		{"core.patch_allocs", "count"},
		{"core.patch_bytes", "B"},
		{"core.patch_funcs_reencoded", "count"},
		{"core.tramp_short", "count"},
		{"core.tramp_long", "count"},
		{"core.tramp_long_spill", "count"},
		{"core.tramp_multi_hop", "count"},
		{"core.tramp_trap", "count"},
		{"core.scratch_bytes_free", "B"},
		{"core.emitted_bytes", "B"},
		{"bin.unmarshal_ms", "ms"},
		{"bin.marshal_ms", "ms"},
		{"store.hash_ms", "ms"},
		{"service.server_ms", "ms"},
		{"service.overhead_ms", "ms"},
		{"sched.queue_wait_ms", "ms"},
		{"sched.rejected", "count"},
		{"storage.analysis_hit_ratio", "ratio"},
		{"storage.result_hit_ratio", "ratio"},
		{"storage.unit_reuse_ratio", "ratio"},
		{"rtlib.preload_ms", "ms"},
		{"emu.load_ms", "ms"},
		{"emu.run_ms", "ms"},
		{"emu.instrs", "count"},
		{"emu.minstr_per_s", "Minstr/s"},
		{"emu.icache_miss_ratio", "ratio"},
		{"emu.unwinds", "count"},
		{"emu.walks", "count"},
		{"trace.overhead_pct", "%"},
	}
	for _, l := range traceLayers {
		defs = append(defs, metricDef{"self." + l + "_ms", "ms"})
	}
	return defs
}()

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, and the last set-up is the one the window measures.
const setupRepeats = 5

// bench is one workload: one traffic mix over generated inputs.
type bench interface {
	// setup generates the inputs from the seed, starts whatever the
	// workload calls into, and computes reference outputs.
	setup(seed int64) error
	// warm runs every distinct input once outside the timed window, so
	// lazy set-up and caches are settled, and records the deterministic
	// work counts into l.
	warm(l *ledger) error
	// callers is the number of closed-loop callers.
	callers() int
	// op runs client c's next operation and checks its output. tr is nil
	// in untraced windows.
	op(c int, tr *tracing) error
	// check verifies outputs outside the timed window and returns the
	// output-quality metrics and a description of every failed check.
	check(l *ledger) (quality, []string)
	// probe calls each layer's public functions on a fixed sample of the
	// inputs, for the per-layer split of a traced run.
	probe(tr *tracing) error
	close()
}

// quality holds the deterministic output metrics of a run.
type quality struct {
	coveragePct, sizeIncreasePct, funcptrAcceptPct, cycleOverheadPct float64
}

// tracing is what a traced operation records into.
type tracing struct {
	rec *recorder
	l   *ledger
}

var workloads = map[string]func() bench{
	"cold-fleet":       func() bench { return &coldFleet{} },
	"diogenes-service": func() bench { return &diogenes{} },
	"verify-exec":      func() bench { return &verifyExec{} },
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp identifies the machine and inputs a record was taken with.
type stamp struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	GOARCH     string  `json:"goarch"`
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// record is the full account of a run: its stamp, the samples behind
// each percentile, the failure ratio and failures, and the metrics.
type record struct {
	Stamp       stamp             `json:"stamp"`
	Samples     map[string]int    `json:"samples"`
	FailedRatio float64           `json:"failed_ratio"`
	Failures    []string          `json:"failures,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: cold-fleet, diogenes-service or verify-exec")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: report the per-layer ledger instead of the end-to-end metrics")
	flag.Parse()
	if workloads[cfg.workload] == nil || traceFlag < 0 || traceFlag > 1 || cfg.seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: rwbench --workload cold-fleet|diogenes-service|verify-exec --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	res, rec, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rwbench:", err)
		os.Exit(1)
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "rwbench: FAILED:", f)
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(rec); err != nil {
		os.Exit(1)
	}
	if err := out.Encode(res); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, runs its timed window and checks, and
// assembles the result and the record.
func run(cfg config) (result, record, error) {
	var w bench
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		w = workloads[cfg.workload]()
		runtime.GC()
		t := time.Now()
		if err := w.setup(cfg.seed); err != nil {
			w.close()
			return result{}, record{}, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer w.close()

	l := newLedger()
	if err := w.warm(l); err != nil {
		return result{}, record{}, fmt.Errorf("%s warm-up: %w", cfg.workload, err)
	}
	runtime.GC()
	debug.FreeOSMemory()

	window := time.Duration(cfg.seconds * float64(time.Second))
	rss := startRSS()
	var plain, traced windowResult
	var tr trace
	if cfg.trace {
		// Alternate untraced and traced quarters so drift over the run
		// (caches filling, versions advancing) falls on both sides.
		for i := 0; i < 2; i++ {
			plain.merge(runWindow(w, window/4, nil))
			t := runWindow(w, window/4, &tracing{l: l})
			tr.recs = append(tr.recs, t.recs...)
			traced.merge(t)
		}
	} else {
		plain = runWindow(w, window, nil)
	}
	peakRSS := rss.finish()

	q, checkFailures := w.check(l)
	failures := append(append(plain.errs, traced.errs...), checkFailures...)
	attempted := plain.ops + traced.ops
	// A failed check is charged as one more failed operation.
	failed := min(plain.failed+traced.failed+len(checkFailures), attempted)

	metrics := map[string]metric{}
	samples := map[string]int{"setup": len(setups), "ops": plain.ops}
	if cfg.trace {
		probe := &tracing{rec: newRecorder(time.Now()), l: l}
		if err := w.probe(probe); err != nil {
			return result{}, record{}, fmt.Errorf("%s probe: %w", cfg.workload, err)
		}
		overhead := 0.0
		if p := plain.opsPerSec(); p > 0 {
			overhead = (p - traced.opsPerSec()) / p * 100
		}
		for name, v := range layerValues(l, &tr, &trace{recs: []*recorder{probe.rec}}, overhead) {
			metrics[name] = metric{v, unitOf(perLayer, name)}
		}
		samples["traced_ops"] = traced.ops
		tr.recs = append(tr.recs, probe.rec)
		if err := tr.write(filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))); err != nil {
			return result{}, record{}, err
		}
	} else {
		p50, _ := percentile(plain.lat, 0.50)
		p90, b90 := percentile(plain.lat, 0.90)
		p99, b99 := percentile(plain.lat, 0.99)
		samples["beyond_p90"], samples["beyond_p99"] = b90, b99
		vals := map[string]float64{
			"setup_s":            median(setups),
			"ops_per_s":          plain.opsPerSec(),
			"latency_p50_ms":     p50,
			"latency_p90_ms":     p90,
			"latency_p99_ms":     p99,
			"peak_rss_mb":        peakRSS,
			"coverage_pct":       q.coveragePct,
			"size_increase_pct":  q.sizeIncreasePct,
			"funcptr_accept_pct": q.funcptrAcceptPct,
			"cycle_overhead_pct": q.cycleOverheadPct,
		}
		for _, d := range endToEnd {
			metrics[d.name] = metric{vals[d.name], d.unit}
		}
	}
	res := result{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: metrics}
	rec := record{
		Stamp: stamp{
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
			GOARCH: runtime.GOARCH, Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		},
		Samples:     samples,
		FailedRatio: float64(failed) / float64(res.Attempted),
		Failures:    failures,
		Metrics:     metrics,
	}
	return res, rec, nil
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// layerValues assembles the per-layer metrics from the ledger, the
// traced windows' spans and the probe's. A layer's self time is a
// median per operation, taken from one source so that the layers of an
// operation add up to it once: self-time samples the workload built
// itself (a service request split with the probe's timings), else the
// probe's spans, which split core into cfg, analysis and the rest, else
// the traced windows' spans. A layer the workload does not reach
// reports 0.
func layerValues(l *ledger, window, probe *trace, overheadPct float64) map[string]float64 {
	spans := (&trace{recs: append(append([]*recorder(nil), window.recs...), probe.recs...)}).spanMedians()
	self, probeSelf := window.selfMedians(), probe.selfMedians()
	get := func(name string) float64 {
		if v, ok := l.values[name]; ok {
			return v
		}
		if s, ok := l.samples[name]; ok {
			return median(s)
		}
		return spans[strings.TrimSuffix(name, "_ms")]
	}
	out := map[string]float64{}
	for _, d := range perLayer {
		out[d.name] = get(d.name)
	}
	for _, layer := range traceLayers {
		name := "self." + layer + "_ms"
		if _, ok := l.samples[name]; ok {
			continue // get took the workload's own samples
		}
		v, ok := probeSelf[layer]
		if !ok {
			v = self[layer]
		}
		out[name] = v
	}
	if refs := l.values["emu.icache_refs"]; refs > 0 {
		out["emu.icache_miss_ratio"] = l.values["emu.icache_misses"] / refs
	}
	reused, recomputed := l.values["units.reused"], l.values["units.recomputed"]
	if reused+recomputed > 0 {
		out["storage.unit_reuse_ratio"] = reused / (reused + recomputed)
	}
	out["trace.overhead_pct"] = overheadPct
	return out
}

// windowResult is what one timed window measured.
type windowResult struct {
	ops, failed int
	lat         []float64 // per-operation latency, ms
	elapsed     time.Duration
	errs        []string
	recs        []*recorder
}

func (a *windowResult) merge(b windowResult) {
	a.ops += b.ops
	a.failed += b.failed
	a.lat = append(a.lat, b.lat...)
	a.elapsed += b.elapsed
	a.errs = append(a.errs, b.errs...)
}

func (a windowResult) opsPerSec() float64 {
	if a.elapsed <= 0 {
		return 0
	}
	return float64(a.ops) / a.elapsed.Seconds()
}

// maxErrs bounds how many failure messages one window keeps.
const maxErrs = 20

// runWindow runs the workload's closed-loop clients for d. With tr set,
// each client records spans into its own recorder and shares tr's
// ledger.
func runWindow(w bench, d time.Duration, tr *tracing) windowResult {
	n := w.callers()
	parts := make([]windowResult, n)
	done := make(chan int, n) // one send per client
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < n; c++ {
		go func(c int) {
			defer func() { done <- c }()
			var ct *tracing
			if tr != nil {
				ct = &tracing{rec: newRecorder(start), l: tr.l}
				parts[c].recs = []*recorder{ct.rec}
			}
			p := &parts[c]
			for time.Now().Before(deadline) {
				ct.beginOp()
				t0 := time.Now()
				err := w.op(c, ct)
				p.lat = append(p.lat, ms(time.Since(t0)))
				p.ops++
				if err != nil {
					p.failed++
					if len(p.errs) < maxErrs {
						p.errs = append(p.errs, err.Error())
					}
				}
			}
		}(c)
	}
	for i := 0; i < n; i++ {
		<-done
	}
	var all windowResult
	for _, p := range parts {
		all.merge(p)
		all.recs = append(all.recs, p.recs...)
	}
	all.elapsed = time.Since(start)
	return all
}

func (t *tracing) beginOp() {
	if t != nil {
		t.rec.beginOp()
	}
}

// compareMain prints the metric changes between two records, refusing
// records whose stamps show a different machine or run shape: a CPU count
// change alone moves service latency more than most code changes do.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: rwbench compare old-record.json new-record.json")
		return 2
	}
	var recs [2]record
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rwbench:", err)
			return 1
		}
		if err := json.Unmarshal(data, &recs[i]); err != nil {
			fmt.Fprintf(os.Stderr, "rwbench: %s: %v\n", path, err)
			return 1
		}
	}
	a, b := recs[0].Stamp, recs[1].Stamp
	a.Seed, b.Seed = 0, 0
	if a != b {
		fmt.Fprintf(os.Stderr, "rwbench: records are not comparable:\n  old %+v\n  new %+v\n", recs[0].Stamp, recs[1].Stamp)
		return 2
	}
	names := make([]string, 0, len(recs[1].Metrics))
	for name := range recs[1].Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o, n := recs[0].Metrics[name], recs[1].Metrics[name]
		change := "n/a"
		if o.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", (n.Value-o.Value)/o.Value*100)
		}
		fmt.Printf("%-34s %14.4f %14.4f %-9s %s\n", name, o.Value, n.Value, n.Unit, change)
	}
	return 0
}
