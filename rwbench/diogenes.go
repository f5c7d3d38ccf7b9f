package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/instrument"
	"icfgpatch/internal/service"
	"icfgpatch/internal/service/wire"
	"icfgpatch/internal/store"
	"icfgpatch/internal/workload"
)

// diogenes runs the paper's §9 loop as a service: Diogenes-style callers
// rewrite the same few large binaries again and again with different
// instrumentation sets, each waiting for its reply, so two closed-loop
// service.Clients call an in-process service.Server over loopback HTTP.
// Most requests hit the analysis store and only patch; a seeded share
// repeats a request exactly and hits the result cache; every K-th
// request for a binary carries its next point release, which runs delta
// analysis through the unit store beside the reads.
type diogenes struct {
	hot     []*hotBinary
	srv     *service.Server
	httpSrv *http.Server
	served  chan error
	clients []*dioClient

	primed []primedReply
	// Queue-wait histogram and rejection count when the timed windows
	// began, so the per-layer numbers cover the windows only.
	waitSum, waitCount float64
	rejected           uint64
}

// hotBinary is one binary of the hot set with its chain of releases.
type hotBinary struct {
	prog *workload.Program
	// target is the binary's share of Diogenes's function count; pool is
	// that many times subsetSpread of its DiogenesTargets, in order.
	target   int
	pool     []string
	versions [][]byte // serialised releases; versions[0] is prog's binary
	cur      atomic.Int64
	requests atomic.Int64
	// Reference runs of the original, per priming mode, counting every
	// block the full counter request instruments; and that request's
	// counter cells and image digest, from an in-process rewrite.
	refs map[core.Mode]*hotRef
}

type hotRef struct {
	want  emu.Result
	cells map[uint64]uint64
	image [32]byte
}

// dioRequest is one request: a release of a hot binary and its options.
type dioRequest struct {
	bin  int
	ver  int
	opts core.Options
}

// dioClient is one closed-loop caller with its own seeded request stream.
type dioClient struct {
	c      *service.Client
	rng    *rand.Rand
	recent []dioRequest
	// A reservoir of (request, reply digest) pairs from the timed windows,
	// compared after the run against in-process rewrites.
	seen    int
	samples []dioSample
}

type dioSample struct {
	req    dioRequest
	digest [32]byte
	// What the reply said: client latency, server time and the server's
	// patch stages (ms), and the path the server took.
	clientMS, serverMS, patchMS float64
	resultHit, analysisHit      bool
}

type primedReply struct {
	bin   int
	mode  core.Mode
	reply *wire.Reply
	image []byte
}

// Traffic shape. README.md gives the source of each number: the
// repository's Diogenes model where it has one, else the reason for the
// choice.
const (
	dioClients = 2
	// Diogenes instruments 700 of the real driver's 12644 functions: the
	// public sync APIs and their call graphs (workload.DiogenesTargets).
	// A request's subset size is log-uniform within subsetSpread times
	// that share of the binary's functions either way, and its functions
	// are drawn from the first subsetSpread times that share of the
	// binary's DiogenesTargets.
	diogenesShare = 700.0 / 12644
	subsetSpread  = 4
	// The model's own request is func-entry counters in jt mode
	// (examples/partialinstr); block-entry and dir requests are the
	// chosen minorities that keep per-block planning and dir mode on the
	// path.
	funcEntryShare = 0.7
	dirShare       = 0.3
	// Chosen shares of the cache paths: exact repeats (result cache) and
	// new releases (delta analysis through the unit store) each well above
	// 1% of requests, so that latency_p99_ms sees them in every run.
	repeatShare    = 0.15 // share of requests repeating a recent one exactly
	recentRequests = 16   // how far back a repeat reaches
	versionEvery   = 50   // every K-th request for a binary is its next release
	versionChain   = 32   // releases per binary; the chain wraps after the last
	mutatedPerRel  = 3    // functions a release changes
	// Replies per client compared byte for byte after the run.
	reservoirPerCli = 12
)

// hotSet is the hot set: the repository's Diogenes model. That is
// workload.Libcuda, a 1:10 scale model of the real driver, on all three
// ISAs, and the workload.Libxul model on x64, the one ISA its
// multi-command build links on. Each hot binary is its model's profile
// with the generator seed drawn from the run's seed, so the seed changes
// every program while the model's size and traits stay.
var hotSet = []struct {
	model func(arch.Arch) (*workload.Program, error)
	arch  arch.Arch
}{
	{workload.LibcudaCached, arch.X64},
	{workload.LibcudaCached, arch.PPC},
	{workload.LibcudaCached, arch.A64},
	{workload.LibxulCached, arch.X64},
}

func (w *diogenes) setup(seed int64) error {
	r := rand.New(rand.NewSource(seed))
	for _, h := range hotSet {
		model, err := h.model(h.arch)
		if err != nil {
			return err
		}
		prof := model.Profile
		prof.Seed = r.Int63()
		prof.Name = fmt.Sprintf("%s-%s", prof.Name, h.arch)
		p, err := workload.Generate(h.arch, true, prof)
		if err != nil {
			return err
		}
		n := len(p.Binary.FuncSymbols())
		hb := &hotBinary{prog: p, refs: map[core.Mode]*hotRef{}}
		hb.target = max(1, int(float64(n)*diogenesShare+0.5))
		hb.pool = workload.DiogenesTargets(p, min(n, hb.target*subsetSpread))
		cur := p.Binary
		for v := 0; v < versionChain; v++ {
			if v > 0 {
				if cur, _, err = workload.MutateVersion(cur, mutatedPerRel, r.Int63()); err != nil {
					return err
				}
			}
			hb.versions = append(hb.versions, cur.Marshal())
		}
		w.hot = append(w.hot, hb)
	}

	// The unit store holds every hot function's units in both modes, so a
	// new release recomputes only the functions it changed.
	funcs := 0
	for _, hb := range w.hot {
		funcs += len(hb.prog.Binary.FuncSymbols())
	}
	w.srv = service.New(service.Config{Workers: dioClients, AnalysisEntries: 16, ResultEntries: 64, FuncEntries: 4 * funcs})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.httpSrv = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan error, 1) // the one Serve result
	go func() { w.served <- w.httpSrv.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for c := 0; c < dioClients; c++ {
		hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: dioClients}}
		w.clients = append(w.clients, &dioClient{
			c:   &service.Client{BaseURL: base, HTTPClient: hc},
			rng: rand.New(rand.NewSource(seed*1000003 + int64(c))),
		})
	}

	// Prime the analysis store with one full block-counter request per
	// binary and mode, and compute the reference runs the replies are
	// checked against.
	for i, hb := range w.hot {
		for _, mode := range []core.Mode{core.ModeJT, core.ModeDir} {
			opts := core.Options{Mode: mode, Request: blockCounters}
			image, reply, err := w.clients[0].c.Rewrite(context.Background(), hb.versions[0], opts)
			if err != nil {
				return fmt.Errorf("priming %s %s: %w", hb.prog.Profile.Name, mode, err)
			}
			w.primed = append(w.primed, primedReply{bin: i, mode: mode, reply: reply, image: image})
			ref, err := hb.reference(opts)
			if err != nil {
				return err
			}
			hb.refs[mode] = ref
		}
	}
	return nil
}

// reference rewrites the binary in-process and runs the original,
// counting every block the rewrite instruments.
func (hb *hotBinary) reference(opts core.Options) (*hotRef, error) {
	res, err := core.Rewrite(hb.prog.Binary, opts)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", hb.prog.Profile.Name, opts.Mode, err)
	}
	ref := &hotRef{cells: res.CounterCells, image: sha256.Sum256(res.Binary.Marshal())}
	res.Recycle()
	points := make([]uint64, 0, len(ref.cells))
	for p := range ref.cells {
		points = append(points, p)
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	ref.want, _, err = execute(nil, hb.prog.Binary, commandArg(hb.prog), hb.prog.Profile.CFI, false, points)
	if err != nil {
		return nil, fmt.Errorf("%s: original run: %w", hb.prog.Profile.Name, err)
	}
	return ref, nil
}

func (w *diogenes) callers() int { return dioClients }

// warmFor is how long the untimed warm-up traffic runs.
const warmFor = 500 * time.Millisecond

func (w *diogenes) warm(l *ledger) error {
	for _, p := range w.primed {
		_, counters, err := parseMetricsText(p.reply.MetricsText)
		if err != nil {
			return fmt.Errorf("priming reply: %w", err)
		}
		out, err := bin.Unmarshal(p.image)
		if err != nil {
			return fmt.Errorf("priming reply image: %w", err)
		}
		l.addOutput(p.reply.Stats, uint64(counters["scratch-free"]), instrBytes(out))
	}
	if res := runWindow(w, warmFor, nil); res.failed > 0 {
		return errors.New(res.errs[0])
	}
	for _, c := range w.clients {
		c.seen, c.samples = 0, nil
	}
	w.waitSum, w.waitCount = w.queueWait()
	w.rejected = w.srv.Stats().Rejected
	return nil
}

// next draws client c's next request.
func (w *diogenes) next(c *dioClient) dioRequest {
	i := c.rng.Intn(len(w.hot))
	hb := w.hot[i]
	if hb.requests.Add(1)%versionEvery == 0 {
		// A new release: a fresh request on it, never a repeat.
		v := hb.cur.Add(1) % int64(len(hb.versions))
		return c.remember(dioRequest{bin: i, ver: int(v), opts: drawOpts(c.rng, hb)})
	}
	if len(c.recent) > 0 && c.rng.Float64() < repeatShare {
		return c.recent[c.rng.Intn(len(c.recent))]
	}
	v := int(hb.cur.Load() % int64(len(hb.versions)))
	return c.remember(dioRequest{bin: i, ver: v, opts: drawOpts(c.rng, hb)})
}

func (c *dioClient) remember(r dioRequest) dioRequest {
	if len(c.recent) == recentRequests {
		copy(c.recent, c.recent[1:])
		c.recent = c.recent[:recentRequests-1]
	}
	c.recent = append(c.recent, r)
	return r
}

// drawOpts draws an instrumentation set: a subset of the binary's
// Diogenes targets around Diogenes's share of its functions, function or
// block entry, counters, jt or dir mode.
func drawOpts(r *rand.Rand, hb *hotBinary) core.Options {
	opts := core.Options{Mode: core.ModeJT, Request: instrument.Request{Where: instrument.BlockEntry, Payload: instrument.PayloadCounter}}
	if r.Float64() < dirShare {
		opts.Mode = core.ModeDir
	}
	if r.Float64() < funcEntryShare {
		opts.Request.Where = instrument.FuncEntry
	}
	spread := math.Log(subsetSpread)
	k := int(float64(hb.target)*math.Exp(spread*(2*r.Float64()-1)) + 0.5)
	k = min(max(k, 1), len(hb.pool))
	funcs := make([]string, 0, k)
	for _, j := range r.Perm(len(hb.pool))[:k] {
		funcs = append(funcs, hb.pool[j])
	}
	sort.Strings(funcs)
	opts.Request.Funcs = funcs
	return opts
}

func (w *diogenes) op(ci int, tr *tracing) error {
	c := w.clients[ci]
	req := w.next(c)
	hb := w.hot[req.bin]
	var rec *recorder
	if tr != nil {
		rec = tr.rec
	}
	s := rec.start("wire", "service.client_rewrite")
	start := time.Now()
	image, reply, err := c.c.Rewrite(context.Background(), hb.versions[req.ver], req.opts)
	end := time.Now()
	if err == nil {
		rec.child("service", "service.server", end.Add(-time.Duration(reply.ElapsedUS)*time.Microsecond), end)
	}
	rec.end(s)
	if err != nil {
		return fmt.Errorf("%s v%d: %w", hb.prog.Profile.Name, req.ver, err)
	}
	if len(image) == 0 {
		return fmt.Errorf("%s v%d: empty image", hb.prog.Profile.Name, req.ver)
	}
	if tr != nil {
		server := float64(reply.ElapsedUS) / 1000
		tr.l.sample("service.server_ms", server)
		tr.l.sample("service.overhead_ms", ms(end.Sub(start))-server)
		tr.l.add("requests", 1)
		switch {
		case reply.ResultHit:
			tr.l.add("requests.result_hit", 1)
		case reply.AnalysisHit:
			tr.l.add("requests.analysis_hit", 1)
		}
		if err := tr.l.addReply(reply); err != nil {
			return err
		}
	}
	// Reservoir sampling keeps a uniform sample of the window's replies.
	c.seen++
	j := len(c.samples)
	if j == reservoirPerCli {
		j = c.rng.Intn(c.seen)
	} else {
		c.samples = append(c.samples, dioSample{})
	}
	if j < reservoirPerCli {
		s := dioSample{req: req, digest: sha256.Sum256(image),
			clientMS: ms(end.Sub(start)), serverMS: float64(reply.ElapsedUS) / 1000,
			resultHit: reply.ResultHit, analysisHit: reply.AnalysisHit}
		if !reply.ResultHit {
			stages, _, err := parseMetricsText(reply.MetricsText)
			if err != nil {
				return err
			}
			_, patch := splitStages(stages)
			s.patchMS = ms(patch)
		}
		c.samples[j] = s
	}
	return nil
}

// check compares the sampled replies byte for byte with in-process
// rewrites of the same release and options, and runs the priming replies'
// images against their originals in the emulator: output and every
// counter must match.
func (w *diogenes) check(l *ledger) (quality, []string) {
	var q quality
	var failures []string
	for _, c := range w.clients {
		for _, s := range c.samples {
			if err := w.compare(s); err != nil {
				failures = append(failures, err.Error())
			}
		}
	}
	var cover, sizes, cycles []float64
	for _, p := range w.primed {
		hb := w.hot[p.bin]
		cover = append(cover, p.reply.Stats.Coverage())
		sizes = append(sizes, 1+p.reply.Stats.SizeIncrease())
		ratio, err := hb.run(p, l)
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		// Overhead is taken in jt mode, as on the other workloads: dir
		// mode's trap trampolines make it swing with the hot blocks.
		if p.mode == core.ModeJT {
			cycles = append(cycles, ratio)
		}
	}
	accepted := 0
	for _, hb := range w.hot {
		opts := core.Options{Mode: core.ModeFuncPtr, Request: blockEmpty}
		res, err := core.Rewrite(hb.prog.Binary, opts)
		switch {
		case refused(opts, err):
		case err != nil:
			failures = append(failures, fmt.Sprintf("%s func-ptr: %v", hb.prog.Profile.Name, err))
		default:
			accepted++
			res.Recycle()
		}
	}
	q.coveragePct = mean(cover) * 100
	q.sizeIncreasePct = geoMeanIncreasePct(sizes)
	q.cycleOverheadPct = geoMeanIncreasePct(cycles)
	q.funcptrAcceptPct = float64(accepted) / float64(len(w.hot)) * 100
	return q, failures
}

// compare rewrites a sampled request in-process and compares digests.
func (w *diogenes) compare(s dioSample) error {
	hb := w.hot[s.req.bin]
	b, err := bin.Unmarshal(hb.versions[s.req.ver])
	if err != nil {
		return err
	}
	res, err := core.Rewrite(b, s.req.opts)
	if err != nil {
		return fmt.Errorf("%s v%d in-process: %w", hb.prog.Profile.Name, s.req.ver, err)
	}
	defer res.Recycle()
	if sha256.Sum256(res.Binary.Marshal()) != s.digest {
		return fmt.Errorf("%s v%d %s %d funcs: served image differs from the in-process rewrite",
			hb.prog.Profile.Name, s.req.ver, s.req.opts.Mode, len(s.req.opts.Request.Funcs))
	}
	return nil
}

// run executes a priming reply's image with the runtime library and
// checks it against the reference run, returning the cycle ratio.
func (hb *hotBinary) run(p primedReply, l *ledger) (float64, error) {
	name := fmt.Sprintf("%s %s priming reply", hb.prog.Profile.Name, p.mode)
	ref := hb.refs[p.mode]
	if sha256.Sum256(p.image) != ref.image {
		return 0, fmt.Errorf("%s: served image differs from the in-process rewrite", name)
	}
	b, err := bin.Unmarshal(p.image)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	got, m, err := execute(nil, b, commandArg(hb.prog), hb.prog.Profile.CFI, true, nil)
	if err != nil {
		return 0, fmt.Errorf("%s: run: %w", name, err)
	}
	if !bytes.Equal(got.Output, ref.want.Output) {
		return 0, fmt.Errorf("%s: output %q, original printed %q", name, got.Output, ref.want.Output)
	}
	if err := checkCounters(m, ref.cells, ref.want.Profile); err != nil {
		return 0, fmt.Errorf("%s: %w", name, err)
	}
	l.addRun(got)
	return float64(got.Cycles) / float64(ref.want.Cycles), nil
}

// probe times the layers a request passes through in the server —
// decode, hashing, plan, patch, encode — on the sampled requests,
// in-process against analyses built outside the spans, splits each
// sampled request's latency into layer self times with them, and reads
// the scheduler and store counters the windows moved.
func (w *diogenes) probe(tr *tracing) error {
	l, rec := tr.l, tr.rec
	total := l.values["requests"]
	l.ratio("storage.result_hit_ratio", l.values["requests.result_hit"], total-l.values["requests.result_hit"])
	l.ratio("storage.analysis_hit_ratio", l.values["requests.analysis_hit"],
		total-l.values["requests.result_hit"]-l.values["requests.analysis_hit"])
	sum, count := w.queueWait()
	if count > w.waitCount {
		l.add("sched.queue_wait_ms", (sum-w.waitSum)/(count-w.waitCount)*1000)
	}
	l.add("sched.rejected", float64(w.srv.Stats().Rejected-w.rejected))

	analyses := map[[3]int]*core.Analysis{}
	for _, c := range w.clients {
		for _, s := range c.samples {
			raw := w.hot[s.req.bin].versions[s.req.ver]
			rec.beginOp()
			var b *bin.Binary
			var err error
			unmarshal := rec.timed("bin", "bin.unmarshal", func() { b, err = bin.Unmarshal(raw) })
			if err != nil {
				return err
			}
			hash := rec.timed("store", "store.hash", func() { store.Hash(raw) })
			if s.resultHit {
				addRequestSelf(l, s, ms(unmarshal), ms(hash), 0)
				continue
			}
			key := [3]int{s.req.bin, s.req.ver, int(s.req.opts.Mode)}
			an := analyses[key]
			if an == nil {
				if an, err = core.Analyze(b, core.AnalysisConfig{Mode: s.req.opts.Mode}); err != nil {
					return err
				}
				analyses[key] = an
			}
			res, err := planAndPatch(rec, l, an, s.req.opts)
			if err != nil {
				return err
			}
			marshal := rec.timed("bin", "bin.marshal", func() { res.Binary.Marshal() })
			res.Recycle()
			if s.analysisHit {
				// A new release's request also ran analysis, which the
				// probe does not repeat; only hits are split.
				addRequestSelf(l, s, ms(unmarshal), ms(hash), ms(marshal))
			}
		}
	}
	return nil
}

// addRequestSelf splits a sampled request's client latency into layer
// self times, one sample each, from the reply and the probe's timings of
// the decode, hash and encode on the same request. The server decodes and
// hashes the body before queueing it; its reported time (Reply.ElapsedUS)
// covers the cache lookups, the patch, whose stages the reply lists, and
// the encoding. So core is the patch, service is the server time less
// patch and encoding, and wire is the rest of the latency: loopback,
// framing, queueing. The parts add up to the latency unless a probe
// timing exceeds what the request took, where a part stops at 0.
func addRequestSelf(l *ledger, s dioSample, unmarshal, hash, marshal float64) {
	l.sample("self.bin_ms", unmarshal+marshal)
	l.sample("self.store_ms", hash)
	l.sample("self.core_ms", s.patchMS)
	l.sample("self.service_ms", max(0, s.serverMS-s.patchMS-marshal))
	l.sample("self.wire_ms", max(0, s.clientMS-s.serverMS-unmarshal-hash))
}

// queueWait reads the server's queue-wait histogram sum (seconds) and
// count from its metrics registry.
func (w *diogenes) queueWait() (sum, count float64) {
	var buf bytes.Buffer
	w.srv.Registry().WriteText(&buf)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		switch name {
		case "icfg_queue_wait_seconds_sum":
			sum = v
		case "icfg_queue_wait_seconds_count":
			count = v
		}
	}
	return sum, count
}

func (w *diogenes) close() {
	if w.httpSrv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = w.httpSrv.Shutdown(ctx) // the server only fails to drain if ctx expires
	<-w.served
	_ = w.srv.Shutdown(ctx) // every request has returned; nothing is left to drain
	for _, c := range w.clients {
		c.c.HTTPClient.CloseIdleConnections()
	}
}
