package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"emmver/internal/aig"
	"emmver/internal/bmc"
	"emmver/internal/btor2"
	"emmver/internal/obs"
	"emmver/internal/pass"
	"emmver/internal/serve"
	"emmver/internal/spec"
	"emmver/internal/verilog"
)

// serve-ci request classes and their order within one round. Each client
// walks its own rounds, so a round's requests see the cache state its
// earlier requests left.
const (
	classCold = "cold" // first sight of the round's design, to a shallow bound: NO_CE
	classWarm = "warm" // deeper resubmission over the cached NO_CE frontier: CE
	classHit  = "hit"  // byte-identical resubmission: cached CE
	classNear = "near" // renamed / decoy-salted / other-format variant: cached CE
)

var roundClasses = []string{classCold, classWarm, classHit, classNear, classHit, classNear, classHit, classNear}

// The round design: a growth memory with a bug planted at depth serveBugK.
// The cold request stops three depths short of the bug, the warm one goes
// two past it.
var (
	serveShape     = growthShape{AW: 8, DW: 8, R: 2, W: 1}
	serveFood      = bulkFood{COI: 16, Sweep: 16}
	serveBugK      = 12
	serveColdDepth = serveBugK - 3
	serveWarmDepth = serveBugK + 2
)

// roundIndices deals the rounds a run can draw to its clients. Round i
// plants the bug with the i-th of the 2^AW-1 nonzero masks, so no two
// rounds share a netlist. Round 0 is the warm-up round; the rest are
// dealt round-robin, as many to each client as the masks allow. On a host
// with many CPUs a client can therefore run out of rounds before the
// deadline, and the run then ends early.
func roundIndices(clients int) [][]int {
	masks := 1<<serveShape.AW - 1
	per := (masks - 1) / clients
	out := make([][]int, clients)
	for c := range out {
		for r := 0; r < per; r++ {
			out[c] = append(out[c], 1+r*clients+c)
		}
	}
	return out
}

// serveRound is one family of requests: the design in the round's format
// plus its near variants.
type serveRound struct {
	format string
	src    string
	near   []serveSource
}

type serveSource struct{ format, src string }

// pendingReplay is a returned witness to check after the timed loop.
type pendingReplay struct {
	format, src string
	w           *bmc.Witness
}

// serveCI drives an in-process emmserved over a unix socket with one
// client per CPU.
type serveCI struct {
	clients   int
	rounds    [][]serveRound // per client
	warmRound serveRound
	cursor    []int

	dir  string
	sock string
	srv  *serve.Server
	done chan error

	mu        sync.Mutex
	tt        *traceTotals
	classLat  map[string][]float64
	queueWait []float64
	skipped   []float64
	replays   []pendingReplay
	replayMS  []float64
}

func newServeCI(dir string) *serveCI {
	return &serveCI{clients: runtime.NumCPU(), dir: dir, tt: newTraceTotals(), classLat: map[string][]float64{}}
}

func genServe(rng *rand.Rand, format string, mask uint64) string {
	bug := &plantedBug{K: serveBugK, Mask: mask}
	if format == "verilog" {
		return growthVerilog(rng, serveShape, bug, serveFood)
	}
	return growthBtor(rng, serveShape, bug, serveFood)
}

// makeRound writes round idx's design and near variants. Even rounds are
// BTOR2, odd rounds Verilog; one near variant is in the other format.
func makeRound(seed int64, idx int, mask uint64) serveRound {
	formats := [2]string{"btor2", "verilog"}
	f := formats[idx%2]
	r := serveRound{format: f, src: genServe(seededRNG(seed, "serve", 4*idx), f, mask)}
	for v := 1; v <= 3; v++ {
		nf := f
		if v == 1 {
			nf = formats[(idx+1)%2]
		}
		r.near = append(r.near, serveSource{nf, genServe(seededRNG(seed, "serve", 4*idx+v), nf, mask)})
	}
	return r
}

// setup writes every client's rounds and starts the server, waiting for
// /healthz.
func (w *serveCI) setup(seed int64) error {
	masks := seededRNG(seed, "serve-masks", 0).Perm(1<<serveShape.AW - 1)
	w.warmRound = makeRound(seed, 0, uint64(masks[0]+1))
	w.rounds = make([][]serveRound, w.clients)
	w.cursor = make([]int, w.clients)
	deal := roundIndices(w.clients)
	if len(deal[0]) < 4 {
		return fmt.Errorf("%d clients leave fewer than 4 rounds each", w.clients)
	}
	for c, idxs := range deal {
		for _, idx := range idxs {
			w.rounds[c] = append(w.rounds[c], makeRound(seed, idx, uint64(masks[idx]+1)))
		}
	}
	w.sock = filepath.Join(w.dir, fmt.Sprintf("serve-%d.sock", os.Getpid()))
	os.Remove(w.sock)
	ln, err := net.Listen("unix", w.sock)
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	w.srv = serve.New(serve.Config{Workers: w.clients})
	w.done = make(chan error, 1)
	go func() { w.done <- w.srv.Serve(ln) }()
	return serve.NewClient("unix:" + w.sock).Healthy(10 * time.Second)
}

func (w *serveCI) close() {
	if w.srv == nil {
		return
	}
	w.srv.Shutdown()
	<-w.done
	w.srv = nil
	os.Remove(w.sock)
}

func serveSpec(depth int) spec.Spec {
	return spec.Spec{Engine: spec.EngineBMC2, Depth: depth, Timeout: spec.Duration(60 * time.Second)}
}

// request is one submission of a round.
type request struct {
	class  string
	source serveSource
	depth  int
}

func (rd serveRound) requests() []request {
	var out []request
	near := 0
	for _, c := range roundClasses {
		switch c {
		case classCold:
			out = append(out, request{c, serveSource{rd.format, rd.src}, serveColdDepth})
		case classWarm, classHit:
			out = append(out, request{c, serveSource{rd.format, rd.src}, serveWarmDepth})
		case classNear:
			out = append(out, request{c, rd.near[near%len(rd.near)], serveWarmDepth})
			near++
		}
	}
	return out
}

// submit sends one request and checks the verdict against the known
// answer. traced fetches the job's event journal for the per-layer split.
func (w *serveCI) submit(cl *serve.Client, q request, traced bool) record {
	req := serve.Request{Format: q.source.format, Source: q.source.src, Spec: serveSpec(q.depth)}
	t0 := time.Now()
	st, err := cl.Submit(req, true)
	lat := time.Since(t0)
	rec := record{class: q.class, start: t0, latency: lat, traced: traced}
	fail := func(format string, args ...any) record {
		rec.failed, rec.why = true, q.class+": "+fmt.Sprintf(format, args...)
		return rec
	}
	if err != nil {
		return fail("%v", err)
	}
	if st.State != "done" || st.Verdict == nil {
		return fail("state %s: %s", st.State, st.Error)
	}
	v := st.Verdict
	switch q.class {
	case classCold:
		if v.Kind != answerNoCE || v.Depth != serveColdDepth || st.Cached {
			return fail("got %s@%d cached=%v, known answer uncached %s@%d", v.Kind, v.Depth, st.Cached, answerNoCE, serveColdDepth)
		}
	case classWarm:
		if v.Kind != answerCE || v.Depth != serveBugK || st.WarmStart != serveColdDepth+1 || v.Witness == nil {
			return fail("got %s@%d warm=%d witness=%v, known answer %s@%d warm from %d",
				v.Kind, v.Depth, st.WarmStart, v.Witness != nil, answerCE, serveBugK, serveColdDepth+1)
		}
	default:
		if v.Kind != answerCE || v.Depth != serveBugK || !st.Cached {
			return fail("got %s@%d cached=%v, known answer cached %s@%d", v.Kind, v.Depth, st.Cached, answerCE, serveBugK)
		}
	}
	var spans []*span
	if traced && (q.class == classCold || q.class == classWarm) {
		var buf bytes.Buffer
		if err := cl.Events(st.ID, &buf); err != nil {
			return fail("events: %v", err)
		}
		if spans, err = spansFromJSONL(buf.Bytes()); err != nil {
			return fail("%v", err)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if q.class == classWarm {
		w.replays = append(w.replays, pendingReplay{q.source.format, q.source.src, v.Witness})
		w.skipped = append(w.skipped, float64(st.WarmStart))
	}
	if !traced {
		w.classLat[q.class] = append(w.classLat[q.class], ms(lat))
		return rec
	}
	if spans != nil {
		for _, s := range spans {
			if s.name == spanServeJob {
				w.queueWait = append(w.queueWait, float64(s.start-t0.UnixNano())/1e6)
			}
		}
		// The client's view of the job is the root: time outside the
		// worker's spans is HTTP, parsing, compiling and queueing.
		spans = append(spans, &span{name: spanJob, start: t0.UnixNano(), end: t0.Add(lat).UnixNano()})
		w.tt.addJob(spans)
	}
	return rec
}

func (w *serveCI) warmup() error {
	cl := serve.NewClient("unix:" + w.sock)
	for _, q := range w.warmRound.requests() {
		if r := w.submit(cl, q, false); r.failed {
			return fmt.Errorf("warm-up: %s", r.why)
		}
	}
	w.classLat = map[string][]float64{}
	w.replays, w.skipped = nil, nil
	return nil
}

// loop runs one closed-loop client per CPU until the deadline; a client
// checks the deadline before each request.
func (w *serveCI) loop(deadline time.Time, trace bool) []record {
	var mu sync.Mutex
	var recs []record
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := serve.NewClient("unix:" + w.sock)
			for w.cursor[c] < len(w.rounds[c]) {
				rd := w.rounds[c][w.cursor[c]]
				traced := trace && w.cursor[c]%2 == 1
				w.cursor[c]++
				for _, q := range rd.requests() {
					if !time.Now().Before(deadline) {
						return
					}
					r := w.submit(cl, q, traced)
					mu.Lock()
					recs = append(recs, r)
					mu.Unlock()
				}
			}
			fmt.Fprintf(os.Stderr, "perfbench: client %d ran out of rounds before the deadline\n", c)
		}(c)
	}
	wg.Wait()
	return recs
}

func parseSource(format, src string) (*aig.Netlist, error) {
	if format == "verilog" {
		f, err := verilog.Parse(src)
		if err != nil {
			return nil, err
		}
		return verilog.Elaborate(f, f.Modules[len(f.Modules)-1].Name)
	}
	return btor2.Read(strings.NewReader(src))
}

// verify replays every witness the warm jobs returned on the simulator,
// against the netlist the client parses from the submitted source.
func (w *serveCI) verify() []error {
	var failed []error
	for _, p := range w.replays {
		n, err := parseSource(p.format, p.src)
		if err == nil {
			t0 := time.Now()
			err = p.w.Replay(n, 0)
			w.replayMS = append(w.replayMS, ms(time.Since(t0)))
		}
		if err != nil {
			failed = append(failed, fmt.Errorf("warm: witness does not replay: %w", err))
		}
	}
	w.replays = nil
	return failed
}

// layers measures the submit-time frontend and compile cost on a fixed
// sample of sources, reads the cache counters, and runs the determinism
// probe on the first round's cold and warm requests.
func (w *serveCI) layers(m metrics) ([]error, error) {
	m.set("sim.replay_ms", median(w.replayMS), "ms")
	// The server journals every job whether or not its client reads the
	// journal, and a traced round only fetches the events after its
	// latency is taken, so traced and untraced rounds do the same work:
	// there is no tracing overhead to measure here.
	m.set("trace_overhead_pct", 0, "%")

	// Frontend and pipeline cost of one submission, on the first four
	// rounds' sources of client 0.
	var parseMS, compileMS, kb, removed []float64
	for _, rd := range w.rounds[0][:4] {
		for _, s := range append([]serveSource{{rd.format, rd.src}}, rd.near...) {
			runtime.GC()
			t0 := time.Now()
			n, err := parseSource(s.format, s.src)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			c, err := pass.Compile(n, []int{0}, pass.Options{})
			if err != nil {
				return nil, err
			}
			parseMS = append(parseMS, ms(t1.Sub(t0)))
			compileMS = append(compileMS, ms(time.Since(t1)))
			kb = append(kb, float64(len(s.src))/1024)
			removed = append(removed, float64(n.NumNodes()-c.N.NumNodes()))
		}
	}
	m.set("frontend.parse_ms", median(parseMS), "ms")
	m.set("frontend.source_kb", median(kb), "KiB")
	m.set("pass.nodes_removed", median(removed), "count")

	m.set("serve.hit_ms", median(w.classLat[classHit]), "ms")
	m.set("serve.near_ms", median(w.classLat[classNear]), "ms")
	m.set("serve.warm_ms", median(w.classLat[classWarm]), "ms")
	m.set("serve.cold_ms", median(w.classLat[classCold]), "ms")
	m.set("serve.queue_wait_ms", median(w.queueWait), "ms")
	m.set("serve.warm_depths_skipped", median(w.skipped), "count")
	var stats serve.CacheStats
	raw, err := serve.NewClient("unix:" + w.sock).Stats()
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw["cache"], &stats); err != nil {
		return nil, err
	}
	if total := stats.Hits + stats.WarmHits + stats.Misses; total > 0 {
		m.set("serve.hit_rate", float64(stats.Hits)/float64(total), "fraction")
	} else {
		m.set("serve.hit_rate", 0, "fraction")
	}

	// Determinism probe: the sequential path a worker runs for the first
	// round's cold request and its warm-started follow-up.
	rd := w.rounds[0][0]
	n, err := parseSource(rd.format, rd.src)
	if err != nil {
		return nil, err
	}
	var passes [2]counts
	var depths []float64
	var failed []error
	for p := range passes {
		for _, job := range []struct {
			depth, start int
			kind         string
			at           int
		}{{serveColdDepth, 0, answerNoCE, serveColdDepth}, {serveWarmDepth, serveColdDepth + 1, answerCE, serveBugK}} {
			reg := obs.NewRegistry()
			r, err := serveSpec(job.depth).RunCtx(context.Background(), n, 0, job.start, func(o *bmc.Options) {
				o.Obs = obs.New(reg, nil)
				o.ValidateWitness = true
			})
			if err != nil {
				return nil, err
			}
			if r.Kind.String() != job.kind || r.Depth != job.at {
				failed = append(failed, fmt.Errorf("determinism probe: got %v, known answer %s at %d", r, job.kind, job.at))
			}
			passes[p].add(snapshotWithEMM(reg))
			depths = append(depths, float64(r.Depth))
		}
	}
	failed = append(failed, sameCounts(passes[0].sum, passes[1].sum)...)
	countMetrics(m, &passes[0])
	m.set("pass.nodes_removed", median(removed), "count")
	m.set("bmc.depth", median(depths), "count")
	spanMetrics(m, w.tt)
	// The worker's serve.job span encloses exactly the engine call.
	m.set("bmc.check_ms", w.tt.perJobMS(spanServeJob), "ms")
	m.set("pass.compile_ms", median(compileMS), "ms")
	propsPerMS(m, w.tt)
	return failed, nil
}
