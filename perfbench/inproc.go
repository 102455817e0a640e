package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"emmver/internal/aig"
	"emmver/internal/bmc"
	"emmver/internal/btor2"
	"emmver/internal/obs"
	"emmver/internal/spec"
)

// record is one attempted job of a timed loop.
type record struct {
	class   string
	start   time.Time
	latency time.Duration
	traced  bool
	failed  bool
	why     string
}

// workload is one benchmark scenario. setup builds its seeded inputs anew
// (it is timed several times, with close between). warmup runs one untimed
// job per job class. loop runs jobs until the deadline; with trace set it
// traces every other job (or round), so traced and untraced jobs share the
// host's conditions. verify checks, after the timed loops, the answers a
// loop could not check inline and returns one error per failed job. layers
// adds the per-layer metrics gathered by the traced jobs and its probes and
// returns one error per failed probe check.
type workload interface {
	setup(seed int64) error
	warmup() error
	loop(deadline time.Time, trace bool) []record
	verify() []error
	layers(m metrics) (failed []error, err error)
	close()
}

// counts sums registry snapshots over jobs.
type counts struct {
	jobs int
	sum  map[string]int64
}

func (c *counts) add(snap map[string]int64) {
	if c.sum == nil {
		c.sum = map[string]int64{}
	}
	c.jobs++
	for k, v := range snap {
		c.sum[k] += v
	}
}

func (c *counts) perJob(names ...string) float64 {
	if c.jobs == 0 {
		return 0
	}
	var v int64
	for _, n := range names {
		v += c.sum[n]
	}
	return float64(v) / float64(c.jobs)
}

// countMetrics reports the per-job work counts every layer publishes into
// the obs registry.
func countMetrics(m metrics, c *counts) {
	m.set("pass.nodes_removed", c.perJob(obs.MPassNodesRemoved), "count")
	m.set("bmc.solve_calls", c.perJob(obs.MSolves), "count")
	m.set("emm.clauses", c.perJob(obs.MEMMAddrClauses, obs.MEMMReadDataClauses), "count")
	m.set("emm.init_clauses", c.perJob(obs.MEMMInitClauses), "count")
	m.set("lazy.rounds", c.perJob(obs.MLazyRounds), "count")
	m.set("unroll.clauses", c.perJob(obs.MUnrollClauses), "count")
	m.set("unroll.gates", c.perJob(obs.MUnrollGates), "count")
	m.set("sat.conflicts", c.perJob(obs.MConflicts), "count")
	m.set("sat.propagations", c.perJob(obs.MPropagations), "count")
	m.set("sat.vars", c.perJob(obs.MSolverVars), "count")
}

// deterministicCounts are the counts that must repeat exactly between two
// runs of one sequential job.
var deterministicCounts = []string{obs.MConflicts, obs.MSolves, obs.MUnrollClauses, "emm.clauses"}

func snapshotWithEMM(reg *obs.Registry) map[string]int64 {
	snap := reg.Snapshot()
	snap["emm.clauses"] = snap[obs.MEMMAddrClauses] + snap[obs.MEMMReadDataClauses]
	return snap
}

// sameCounts compares the deterministic counts of two snapshots.
func sameCounts(a, b map[string]int64) []error {
	var errs []error
	for _, k := range deterministicCounts {
		if a[k] != b[k] {
			errs = append(errs, fmt.Errorf("determinism: %s differs between identical runs: %d vs %d", k, a[k], b[k]))
		}
	}
	return errs
}

// spanMetrics reports the per-job span times of the engine layers.
func spanMetrics(m metrics, tt *traceTotals) {
	m.set("pass.compile_ms", tt.perJobMS("pass.compile"), "ms")
	m.set("bmc.check_ms", tt.perJobMS(spanCheck), "ms")
	m.set("bmc.depth_self_ms", tt.perJobSelfMS("bmc.depth"), "ms")
	m.set("emm.generate_ms", tt.perJobSelfMS("emm.generate"), "ms")
	m.set("sat.backward_ms", tt.perJobSelfMS("solve.backward"), "ms")
	m.set("sat.forward_ms", tt.perJobSelfMS("solve.forward"), "ms")
	m.set("sat.ce_ms", tt.perJobSelfMS("solve.ce"), "ms")
	m.set("sat.simplify_ms", tt.perJobSelfMS("bmc.simplify"), "ms")
	tt.layerMetrics(m)
}

// propsPerMS is SAT propagations per millisecond of solve-span time.
func propsPerMS(m metrics, tt *traceTotals) {
	solveMS := tt.perJobSelfMS("solve.ce", "solve.forward", "solve.backward")
	if solveMS > 0 {
		m.set("sat.props_per_ms", m["sat.propagations"].Value/solveMS, "1/ms")
	} else {
		m.set("sat.props_per_ms", 0, "1/ms")
	}
}

// zeroServe reports the serving metrics of a workload that does not serve.
func zeroServe(m metrics) {
	for _, n := range []string{"serve.hit_ms", "serve.near_ms", "serve.warm_ms", "serve.cold_ms", "serve.queue_wait_ms"} {
		m.set(n, 0, "ms")
	}
	m.set("serve.hit_rate", 0, "fraction")
	m.set("serve.warm_depths_skipped", 0, "count")
	m.set("sim.replay_ms", 0, "ms")
}

// inprocJob is one source text to verify in-process.
type inprocJob struct {
	class string
	src   string
	depth int
}

// inproc is the shared runner of the two in-process workloads: one client
// that reads BTOR2 text and calls the engine directly.
type inproc struct {
	corpus []inprocJob
	next   int
	run    func(n *aig.Netlist, j inprocJob, o *obs.Observer) error

	tt     *traceTotals
	cnt    counts
	srcKB  []float64
	depths []float64
}

func (w *inproc) close() {}

// verify has nothing to do: in-process verdicts are checked inline.
func (w *inproc) verify() []error { return nil }

// one runs job j, traced when o is non-nil.
func (w *inproc) one(j inprocJob, o *obs.Observer) record {
	runtime.GC()
	t0 := time.Now()
	root := o.Span(spanJob)
	sp := o.Span(spanParse)
	n, err := btor2.Read(strings.NewReader(j.src))
	sp.End()
	if err == nil {
		err = w.run(n, j, o)
	}
	root.End()
	r := record{class: j.class, start: t0, latency: time.Since(t0)}
	if err != nil {
		r.failed, r.why = true, err.Error()
	}
	return r
}

func (w *inproc) loop(deadline time.Time, trace bool) []record {
	var recs []record
	for time.Now().Before(deadline) && w.next < len(w.corpus) {
		j := w.corpus[w.next]
		traced := trace && w.next%2 == 1
		w.next++
		var o *obs.Observer
		var sink *memSink
		var reg *obs.Registry
		if traced {
			sink, reg = &memSink{}, obs.NewRegistry()
			o = obs.New(reg, sink)
		}
		r := w.one(j, o)
		r.traced = traced
		recs = append(recs, r)
		if traced {
			w.tt.addJob(spansFromEvents(sink.take()))
			w.cnt.add(snapshotWithEMM(reg))
			w.srcKB = append(w.srcKB, float64(len(j.src))/1024)
			w.depths = append(w.depths, float64(reg.Gauge(obs.MDepth).Value()))
		}
	}
	return recs
}

func (w *inproc) frontendMetrics(m metrics) {
	m.set("frontend.parse_ms", w.tt.perJobMS(spanParse), "ms")
	m.set("frontend.source_kb", mean(w.srcKB), "KiB")
	m.set("bmc.depth", mean(w.depths), "count")
}

// qsortConfigBench is the prove-qsort instance: quicksort of three
// elements over small words, as in the paper's Table 1 at reduced width.
var qsortConfigBench = qsortConfig{N: 3, AW: 3, DW: 4, SW: 3}

// qsortCorpusSize bounds the jobs one run can reach; at about two seconds
// a job it is never the limit.
const qsortCorpusSize = 256

// proveQsort is the BMC-3 proof workload: bmc.CheckManyParallel over both
// quicksort properties with one worker per CPU, the path the emmv and
// emmbtor tools take. The known answer is PROOF for both properties.
type proveQsort struct {
	inproc
	jobs int
}

func newProveQsort() *proveQsort {
	w := &proveQsort{jobs: runtime.NumCPU()}
	w.tt = newTraceTotals()
	w.run = w.check
	return w
}

func (w *proveQsort) setup(seed int64) error {
	w.corpus = make([]inprocJob, qsortCorpusSize)
	for i := range w.corpus {
		w.corpus[i] = inprocJob{class: "qsort", src: qsortBtor(seededRNG(seed, "qsort", i), qsortConfigBench)}
	}
	w.next = 0
	return nil
}

func (w *proveQsort) check(n *aig.Netlist, j inprocJob, o *obs.Observer) error {
	opt, err := spec.Default().Options()
	if err != nil {
		return err
	}
	opt.Obs = o
	sp := o.Span(spanCheck)
	mr := bmc.CheckManyParallel(n, []int{0, 1}, opt, w.jobs)
	sp.End()
	for i, r := range mr.Results {
		if got := r.Kind.String(); got != answerProof {
			return fmt.Errorf("property %d: got %s, known answer %s", i, got, answerProof)
		}
	}
	return nil
}

func (w *proveQsort) warmup() error {
	r := w.one(inprocJob{class: "qsort", src: qsortBtor(seededRNG(-1, "qsort-warmup", 0), qsortConfigBench)}, nil)
	if r.failed {
		return fmt.Errorf("warm-up: %s", r.why)
	}
	return nil
}

// layers reports the traced jobs' counts. CheckManyParallel's workers
// share a forward-termination oracle, so these counts vary between
// identical runs and are not asserted.
func (w *proveQsort) layers(m metrics) ([]error, error) {
	w.frontendMetrics(m)
	countMetrics(m, &w.cnt)
	spanMetrics(m, w.tt)
	propsPerMS(m, w.tt)
	zeroServe(m)
	return nil, nil
}

// growthShapes is the fixed set the unsat-emm seed draws from: shared
// address memories with one or two write ports and two or three read
// ports, each at a depth that keeps the jobs within 2x of one another.
var growthShapes = []struct {
	shape growthShape
	depth int
}{
	{growthShape{AW: 8, DW: 16, R: 2, W: 1}, 20},
	{growthShape{AW: 8, DW: 8, R: 2, W: 2}, 22},
	{growthShape{AW: 8, DW: 8, R: 3, W: 1}, 22},
}

// growthCorpusSize bounds the jobs one unsat-emm run can reach.
const growthCorpusSize = 960

// unsatEMM is the BMC-2 workload: sequential spec.Spec.RunCtx on the
// growth family, every depth UNSAT. The known answer is NO_CE at the
// bound.
type unsatEMM struct {
	inproc
	probe map[string]int64
}

func newUnsatEMM() *unsatEMM {
	w := &unsatEMM{}
	w.tt = newTraceTotals()
	w.run = w.check
	return w
}

// setup writes the corpus in blocks, each a seed-shuffled pass over every
// shape, so every run sees the shapes in equal shares.
func (w *unsatEMM) setup(seed int64) error {
	w.corpus = nil
	for b := 0; len(w.corpus) < growthCorpusSize; b++ {
		for _, k := range seededRNG(seed, "growth-block", b).Perm(len(growthShapes)) {
			i := len(w.corpus)
			g := growthShapes[k]
			src := growthBtor(seededRNG(seed, "growth", i), g.shape, nil, bulkFood{})
			w.corpus = append(w.corpus, inprocJob{class: "growth", src: src, depth: g.depth})
		}
	}
	w.next = 0
	return nil
}

func growthSpec(depth int) spec.Spec { return spec.Spec{Engine: spec.EngineBMC2, Depth: depth} }

func (w *unsatEMM) check(n *aig.Netlist, j inprocJob, o *obs.Observer) error {
	sp := o.Span(spanCheck)
	r, err := growthSpec(j.depth).RunCtx(context.Background(), n, 0, 0, func(opt *bmc.Options) { opt.Obs = o })
	sp.End()
	if err != nil {
		return err
	}
	if r.Kind.String() != answerNoCE || r.Depth != j.depth {
		return fmt.Errorf("got %s at depth %d, known answer %s at %d", r.Kind, r.Depth, answerNoCE, j.depth)
	}
	return nil
}

func (w *unsatEMM) warmup() error {
	for k, g := range growthShapes {
		src := growthBtor(seededRNG(-1, "growth-warmup", k), g.shape, nil, bulkFood{})
		if r := w.one(inprocJob{class: "growth", src: src, depth: g.depth}, nil); r.failed {
			return fmt.Errorf("warm-up: %s", r.why)
		}
	}
	return nil
}

// layers runs the determinism probe: the first block of the corpus (one
// job per shape) twice, each job with a fresh registry. The counts of the
// two passes must match exactly, and they are the counts reported, so
// two runs of one seed report the same numbers.
func (w *unsatEMM) layers(m metrics) ([]error, error) {
	w.frontendMetrics(m)
	var first, second counts
	var failed []error
	for pass := 0; pass < 2; pass++ {
		for _, j := range w.corpus[:len(growthShapes)] {
			reg := obs.NewRegistry()
			if r := w.one(j, obs.New(reg, nil)); r.failed {
				failed = append(failed, fmt.Errorf("determinism probe: %s", r.why))
			}
			snap := snapshotWithEMM(reg)
			if pass == 0 {
				first.add(snap)
			} else {
				second.add(snap)
			}
		}
	}
	failed = append(failed, sameCounts(first.sum, second.sum)...)
	countMetrics(m, &first)
	spanMetrics(m, w.tt)
	propsPerMS(m, w.tt)
	zeroServe(m)
	return failed, nil
}
