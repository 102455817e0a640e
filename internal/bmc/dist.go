package bmc

// Distributed cube-and-conquer: this process runs ONE worker engine of a
// multi-process fleet, with the cube queue and clause bus of cube.go
// replaced by a sharenet broker. Depths advance in fleet-wide lockstep
// (the broker releases a depth only when every cube is refuted), the
// broker-assigned worker 0 runs the termination proofs its peers skip, and
// the first decisive answer — a SAT cube, a proof, a timeout — finishes
// everyone, exactly mirroring the in-process first-wins decide.
//
// Soundness is inherited wholesale: the cubes the broker leases are the
// same exhaustive comparator-prefix partition cubeFleet.solveCE seeds (the
// broker reuses the seed-width formula with the fleet size as the job
// count), a cube result is a deterministic fact about the shared formula
// (so lease reassignment after a worker death can at worst duplicate
// work), and clauses cross processes in the same canonical coding they
// cross goroutines in — the wire adds loss, never invention.

import (
	"context"
	"fmt"

	"emmver/internal/aig"
	"emmver/internal/sat"
	"emmver/internal/sharenet"
)

// DistEligible reports whether a run can join a distributed fleet: one
// property, no PBA tracing, no environment constraints — the same rules as
// in-process sharing/cubing, which the socket changes nothing about.
func DistEligible(n *aig.Netlist, opt Options) error {
	if opt.PBA {
		return fmt.Errorf("bmc: distributed solving excludes PBA (imported clauses have no proof derivation)")
	}
	if opt.LazyEMM {
		return fmt.Errorf("bmc: distributed solving excludes demand-driven EMM instantiation (cube leases and the broker's intern table assume the eager comparator order); drop -lazy")
	}
	if len(n.Constraints) > 0 {
		return fmt.Errorf("bmc: distributed solving excludes designs with environment constraints")
	}
	return nil
}

// CheckDist runs property prop of n as this process's share of a
// distributed fleet, pulling cubes from (and pushing lemmas through) the
// given client. Every process of the fleet must run the same netlist,
// property, and options. The returned result carries a witness only in the
// process whose engine found the counter-example; the others report the
// fleet verdict with a nil Witness.
func CheckDist(n *aig.Netlist, prop int, opt Options, cl *sharenet.Client) (*Result, error) {
	return CheckDistCtx(context.Background(), n, prop, opt, cl)
}

// CheckDistCtx is CheckDist under a cancellation context.
func CheckDistCtx(ctx context.Context, n *aig.Netlist, prop int, opt Options, cl *sharenet.Client) (*Result, error) {
	c := compileModel(n, []int{prop}, &opt)
	if err := DistEligible(c.n, opt); err != nil {
		return nil, err
	}
	r, err := checkDist(ctx, c.n, c.props[0], opt, cl)
	if err != nil {
		return nil, err
	}
	return c.finish(r, prop, opt), nil
}

// checkDist runs this worker's share of the fleet on the compiled netlist:
// the driver advances depth in step with the broker, termination proofs
// run on worker 0 only, and the counter-example query goes through the
// remote lease loop.
func checkDist(ctx context.Context, n *aig.Netlist, prop int, opt Options, cl *sharenet.Client) (*Result, error) {
	ctx, cancel := fleetCtx(ctx, &opt)
	defer cancel()
	// A fleet verdict (wherever it was found) interrupts this worker's
	// in-flight solve at its next poll.
	cl.OnVerdict(func(sharenet.Verdict) { cancel() })

	fwd, bwd := newBuses(1, opt)
	cl.AttachBus(0, fwd)
	cl.AttachBus(1, bwd)
	e := newEngine(ctx, n, prop, opt)
	if e.fg != nil {
		e.fg.TrackComparators = true
	}
	attachShare(e, fwd, bwd, 0)
	w := &distWorker{e: e, cl: cl}
	d := newDriver([]*engine{e}, []int{prop}, 0)
	d.run(ctx, &bmcStrategy{e: e, d: d, proofs: opt.Proofs && cl.WorkerID() == 0, ce: w})
	if w.err != nil {
		return nil, w.err
	}
	r := d.finish(w.settle(d.res[0]))
	addBusStats(&r.Stats, fwd, bwd)
	publishCoopObs(opt.Obs, &r.Stats)
	return r, nil
}

// distWorker is the remote-lease scheduler: the broker leases the cubes of
// each depth's counter-example query to the fleet's workers.
type distWorker struct {
	e   *engine
	cl  *sharenet.Client
	err error // the fleet link failed; the run stops with it
}

// fleetKinds maps run-ending Result kinds onto fleet verdict kinds.
var fleetKinds = map[Kind]byte{
	KindCE: sharenet.VerdictCE, KindNoCE: sharenet.VerdictNoCE,
	KindProof: sharenet.VerdictProof, KindTimeout: sharenet.VerdictTimeout,
}

// settle publishes this worker's run-ending result r to the fleet unless a
// verdict is already out — a timeout included, so the broker always hears
// one — and reports the fleet verdict in place of a result not decided
// here. A counter-example found here keeps its witness; peers report the
// bare verdict.
func (w *distWorker) settle(r *Result) *Result {
	if _, ok := w.cl.Verdict(); !ok && r.Kind != KindNoCE {
		w.cl.SendVerdict(sharenet.Verdict{Kind: fleetKinds[r.Kind], Depth: r.Depth, Side: r.ProofSide})
	}
	if r.Witness != nil || r.Kind == KindProof {
		return r
	}
	v, ok := w.cl.Verdict()
	if !ok {
		// Transport gone (or broker closed verdict-less): this worker can
		// only report how far it got.
		return &Result{Kind: KindTimeout, Depth: r.Depth}
	}
	out := &Result{Kind: KindTimeout, Depth: v.Depth, ProofSide: v.Side}
	for k, vk := range fleetKinds {
		if vk == v.Kind {
			out.Kind = k
		}
	}
	w.e.obsResolved(out.Kind)
	return out
}

// solveCE runs one depth's lease/solve/report cycle. It returns nil when
// the broker advances the fleet to depth+1 (every cube refuted), a
// counter-example found here, or a timeout when the fleet was decided
// elsewhere or this worker was interrupted; settle maps the latter onto
// the fleet verdict.
func (w *distWorker) solveCE(prop, depth int) *Result {
	e, cl := w.e, w.cl
	nComp := 0
	if e.fg != nil {
		nComp = len(e.fg.CompLits())
	}
	fail := func(err error) *Result {
		w.err = err
		return &Result{Kind: KindTimeout, Depth: depth}
	}
	for {
		if _, ok := cl.Verdict(); ok {
			return &Result{Kind: KindTimeout, Depth: depth}
		}
		resp, err := cl.RequestWork(depth, nComp)
		if err != nil {
			return fail(fmt.Errorf("bmc: fleet link lost at depth %d: %w", depth, err))
		}
		switch resp.Kind {
		case sharenet.WorkAdvance:
			// The broker catches workers up one depth per request, the
			// driver's own step; any other advance is a protocol error.
			if resp.Depth != depth+1 {
				return fail(fmt.Errorf("bmc: broker advanced %d -> %d", depth, resp.Depth))
			}
			return nil
		case sharenet.WorkFinish:
			return &Result{Kind: KindTimeout, Depth: depth}
		case sharenet.WorkLease:
			signs, err := parseSigns(resp.Signs)
			if err != nil {
				return fail(err)
			}
			st := e.solveCube(prop, depth, signs, cubeConflictBudget)
			if st == sat.Unknown && !e.timedOut() {
				if len(signs) < nComp {
					if err := cl.SendResult(depth, resp.Signs, true); err != nil {
						return fail(err)
					}
					continue
				}
				st = e.solveCube(prop, depth, signs, 0)
			}
			switch st {
			case sat.Unsat:
				if err := cl.SendResult(depth, resp.Signs, false); err != nil {
					return fail(err)
				}
			case sat.Sat:
				// Extract before anything else touches this solver: the
				// model lives here, and only here — peers get the verdict.
				wit := e.extractWitness(depth)
				e.validateWitness(wit, prop)
				e.logf("depth %d: counter-example (distributed worker %d)", depth, cl.WorkerID())
				return &Result{Kind: KindCE, Depth: depth, Witness: wit}
			default:
				// Interrupted: a fleet verdict cancelled us, or this
				// worker's own budget expired. First verdict wins.
				return &Result{Kind: KindTimeout, Depth: depth}
			}
		default:
			return fail(fmt.Errorf("bmc: unknown work response kind %d", resp.Kind))
		}
	}
}

// parseSigns decodes a broker cube key ('0'/'1' per comparator index).
func parseSigns(s string) ([]bool, error) {
	signs := make([]bool, len(s))
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '0':
		case '1':
			signs[i] = true
		default:
			return nil, fmt.Errorf("bmc: corrupt cube key %q", s)
		}
	}
	return signs, nil
}

// DistWorkerHello builds the client hello for a CheckDist run: the broker
// learns the bound (for the NO_CE depth) and whether this worker would run
// termination proofs if assigned slot 0.
func DistWorkerHello(opt Options) (maxDepth int, proofs bool) {
	return opt.MaxDepth, opt.Proofs
}
