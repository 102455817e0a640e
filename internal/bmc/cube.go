package bmc

// EMM-aware cube-and-conquer. The per-depth counter-example check is
// partitioned over the EMM address-comparator variables: a cube is a
// polarity assignment to a prefix of the comparators in creation order
// (creation order is a pure function of the netlist and the depth sequence,
// so lockstep workers agree on what "comparator k" means without any
// coordination), and the 2^w initial cubes over the first w comparators are
// an exhaustive case split of the search space. Each cube is solved under
// assumptions by a fleet worker pulling from a work-stealing queue; a cube
// that exceeds its conflict budget is split on the next comparator index
// into two children (still an exhaustive refinement), or — when the split
// variables are used up — re-solved without a budget.
//
// Why address comparators: on EMM-encoded designs the refutation of ¬P at
// each depth is dominated by address-match case analysis (the (4m+2n+1)kW·R
// comparator chains of the paper's §4.1). Fixing comparator polarities
// collapses the forwarding logic per cube, and — with the sharing bus on —
// the comparator-level lemmas one worker learns transfer to every other
// worker's cubes through their canonical identity.
//
// Verdict determinism: the cubes at each depth partition the assignment
// space, so "every cube UNSAT" equals the sequential UNSAT and "some cube
// SAT" yields a counter-example at the same (first) depth the sequential
// engine would report. Only which witness is found may vary, as in the
// existing portfolio.

import (
	"context"
	"sync"

	"emmver/internal/aig"
	"emmver/internal/obs"
	"emmver/internal/par"
	"emmver/internal/sat"
	"emmver/internal/share"
)

// cubeConflictBudget is the per-cube conflict budget before a cube is
// refined by splitting. A variable so tests can force splits on tiny
// designs.
var cubeConflictBudget int64 = 2000

// cubeMaxInitialWidth caps the initial split width (2^w seed cubes).
const cubeMaxInitialWidth = 10

// cubeJob is one queue entry: comparator polarities for indices
// [0, len(signs)) plus the worker that produced it (-1 for seed cubes), so
// the queue can count work-stealing.
type cubeJob struct {
	signs []bool
	owner int
}

// cubeQueue is the depth-local work-stealing queue: a LIFO stack (children
// of a split are hot in their producer's clause database, and LIFO gets
// them — or a stealing peer — back onto a solver quickly) with an active
// count so consumers can tell "momentarily empty" from "all cubes
// resolved".
type cubeQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []cubeJob
	active int
	closed bool
	splits int64
	stolen int64
}

func newCubeQueue() *cubeQueue {
	q := &cubeQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// pop blocks until a cube is available (returning it and marking it
// active), every cube is resolved, or the queue is closed. The two latter
// cases return false.
func (q *cubeQueue) pop(self int) (cubeJob, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed {
			return cubeJob{}, false
		}
		if n := len(q.items); n > 0 {
			it := q.items[n-1]
			q.items = q.items[:n-1]
			q.active++
			if it.owner >= 0 && it.owner != self {
				q.stolen++
			}
			return it, true
		}
		if q.active == 0 {
			return cubeJob{}, false
		}
		q.cond.Wait()
	}
}

// push adds a cube produced by worker self.
func (q *cubeQueue) push(signs []bool, self int) {
	q.mu.Lock()
	q.items = append(q.items, cubeJob{signs: signs, owner: self})
	q.mu.Unlock()
	q.cond.Broadcast()
}

// split replaces the popped cube cb with its two children on the next
// comparator index and releases cb's active slot.
func (q *cubeQueue) split(cb cubeJob, self int) {
	lo := append(append([]bool(nil), cb.signs...), false)
	hi := append(append([]bool(nil), cb.signs...), true)
	q.mu.Lock()
	q.items = append(q.items, cubeJob{signs: lo, owner: self}, cubeJob{signs: hi, owner: self})
	q.active--
	q.splits++
	q.mu.Unlock()
	q.cond.Broadcast()
}

// done releases a popped cube's active slot (the cube was resolved).
func (q *cubeQueue) done() {
	q.mu.Lock()
	q.active--
	wake := q.active == 0 && len(q.items) == 0
	q.mu.Unlock()
	if wake {
		q.cond.Broadcast()
	}
}

// close wakes every blocked consumer and makes further pops fail; used for
// cancellation (a decisive answer or an expired budget).
func (q *cubeQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// checkCubed runs one (compiled) property on a cube-and-conquer fleet: jobs
// worker engines advance depth in lockstep under the driver, termination
// proofs run sequentially on engine 0, and the counter-example query fans
// out over the cube queue. Callers have verified shareEligible and
// jobs > 1.
func checkCubed(ctx context.Context, n *aig.Netlist, prop int, opt Options, jobs int) *Result {
	// Cube-and-conquer splits the search over the deterministic eager
	// comparator creation order; demand-driven instantiation would make
	// that order model-dependent and diverge across workers, so a cubed
	// run solves eagerly.
	opt.LazyEMM = false
	ctx, cancel := fleetCtx(ctx, &opt)
	defer cancel()
	opt.Log = par.SyncWriter(opt.Log)

	fwd, bwd := newBuses(jobs, opt)
	f := &cubeFleet{ctx: ctx, cancel: cancel, engines: make([]*engine, jobs)}
	for w := range f.engines {
		wopt := opt
		wopt.Obs = opt.Obs.With(obs.F("worker", w))
		e := newEngine(ctx, n, prop, wopt)
		if e.fg != nil {
			e.fg.TrackComparators = true
		}
		attachShare(e, fwd, bwd, w)
		f.engines[w] = e
	}
	d := newDriver(f.engines, []int{prop}, opt.StartDepth)
	d.run(ctx, &bmcStrategy{e: f.engines[0], d: d, proofs: opt.Proofs, ce: f})
	r := d.finish(d.res[0])
	r.Stats.CubeSplits, r.Stats.CubeStolen = f.splits, f.stolen
	addBusStats(&r.Stats, fwd, bwd)
	publishCoopObs(opt.Obs, &r.Stats)
	return r
}

// cubeFleet is the cube-queue scheduler: every engine of the fleet solves
// cubes of each depth's counter-example query.
type cubeFleet struct {
	ctx            context.Context
	cancel         context.CancelFunc // tears the fleet down on a decisive answer
	engines        []*engine
	splits, stolen int64
}

// solveCE fans the depth-k counter-example check out over the cube queue.
// Returns a decisive Result (CE or timeout), or nil when every cube is
// UNSAT (no CE at this depth). The first decisive answer cancels the fleet
// so in-flight cube solves stop at their next interrupt poll.
func (f *cubeFleet) solveCE(prop, depth int) *Result {
	jobs := len(f.engines)
	nComp := -1
	for _, e := range f.engines {
		c := 0
		if e.fg != nil {
			c = len(e.fg.CompLits())
		}
		if nComp < 0 || c < nComp {
			nComp = c
		}
	}
	w := 0
	for (1<<w) < 2*jobs && w < nComp && w < cubeMaxInitialWidth {
		w++
	}
	q := newCubeQueue()
	for m := 0; m < 1<<w; m++ {
		signs := make([]bool, w)
		for k := range signs {
			signs[k] = m&(1<<k) != 0
		}
		q.push(signs, -1)
	}
	stop := context.AfterFunc(f.ctx, q.close)
	defer stop()

	var out struct {
		mu sync.Mutex
		r  *Result
	}
	decide := func(r *Result) {
		out.mu.Lock()
		if out.r == nil {
			out.r = r
		}
		out.mu.Unlock()
		f.cancel()
	}
	par.ForEach(f.ctx, jobs, jobs, func(ctx context.Context, _, self int) {
		cubeWorker(ctx, f.engines[self], self, q, prop, depth, nComp, decide)
	})
	q.mu.Lock()
	f.splits += q.splits
	f.stolen += q.stolen
	q.mu.Unlock()
	return out.r
}

// cubeWorker pulls cubes until the queue drains or the run is decided.
func cubeWorker(ctx context.Context, e *engine, self int, q *cubeQueue, prop, depth, nComp int, decide func(*Result)) {
	for {
		cb, ok := q.pop(self)
		if !ok {
			return
		}
		st := e.solveCube(prop, depth, cb.signs, cubeConflictBudget)
		if st == sat.Unknown && !e.timedOut() {
			// Budget exceeded: refine by splitting, or solve to completion
			// when the split variables are exhausted.
			if len(cb.signs) < nComp {
				q.split(cb, self)
				continue
			}
			st = e.solveCube(prop, depth, cb.signs, 0)
		}
		switch st {
		case sat.Unsat:
			q.done()
		case sat.Sat:
			// Extract before anything else touches this engine's solver:
			// the model lives in the worker's own fs.
			wit := e.extractWitness(depth)
			e.validateWitness(wit, prop)
			e.logf("depth %d: counter-example (cube worker %d)", depth, self)
			decide(&Result{Kind: KindCE, Depth: depth, Witness: wit})
			q.done()
			return
		default:
			// Unknown with the run budget gone: either a genuine timeout or
			// a sibling's decisive answer cancelled us — decide() is
			// first-wins, so a stale timeout record loses to the real
			// verdict.
			decide(&Result{Kind: KindTimeout, Depth: depth})
			q.done()
			return
		}
	}
}

// solveCube runs the depth-i counter-example check under the cube's
// comparator assumptions with the given conflict budget (0 = none).
func (e *engine) solveCube(prop, depth int, signs []bool, budget int64) sat.Status {
	sp := e.obs.Span("solve.cube", obs.F("depth", depth), obs.F("width", len(signs)))
	var comp []sat.Lit
	if e.fg != nil {
		comp = e.fg.CompLits()
	}
	assumps := make([]sat.Lit, 0, len(signs)+1)
	assumps = append(assumps, e.fu.PropertyLit(prop, depth).Not())
	for k, neg := range signs {
		assumps = append(assumps, comp[k].XorSign(neg))
	}
	old := e.fs.ConflictBudget
	e.fs.ConflictBudget = budget
	st := e.solve(e.fs, assumps...)
	e.fs.ConflictBudget = old
	sp.End(obs.F("result", st.String()))
	return st
}

// addBusStats folds the buses' fleet-wide tallies into st.
func addBusStats(st *Stats, buses ...*share.Bus) {
	for _, b := range buses {
		if b == nil {
			continue
		}
		st.SharedExported += b.Exported()
		st.SharedImported += b.Imported()
		st.SharedFiltered += b.Filtered()
		st.SharedDropped += b.Dropped()
	}
}

// publishCoopObs mirrors the cooperative-solving tallies onto the metrics
// registry (no-op when detached).
func publishCoopObs(o *obs.Observer, st *Stats) {
	reg := o.Registry()
	if reg == nil {
		return
	}
	reg.Counter(obs.MShareExported).Add(st.SharedExported)
	reg.Counter(obs.MShareImported).Add(st.SharedImported)
	reg.Counter(obs.MShareFiltered).Add(st.SharedFiltered)
	reg.Counter(obs.MShareDropped).Add(st.SharedDropped)
	reg.Counter(obs.MCubeSplits).Add(st.CubeSplits)
	reg.Counter(obs.MCubeStolen).Add(st.CubeStolen)
}
