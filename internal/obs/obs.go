// Package obs is the engine's observability layer: a metrics registry of
// atomic counters and gauges, structured span tracing to a pluggable sink,
// and a live progress reporter. It is dependency-free (standard library
// only) and designed so that an absent observer costs nothing: every
// method on a nil *Observer, *Counter, *Gauge, or zero Span is a no-op,
// and the hot paths of the solver/unroller/EMM layers publish counter
// deltas at depth or solve-call granularity rather than per operation.
//
// The canonical metric names (MDepth, MConflicts, ...) form the schema
// shared by the SAT solver, the unrollers, the EMM generator, and the BMC
// engines; CLIs and the /metrics text dump rely on them, and so do the
// example jq one-liners in the README.
package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Canonical metric names. Counters unless noted.
const (
	// BMC engine.
	MDepth         = "bmc.depth" // gauge: deepest depth any engine has completed
	MPropsResolved = "bmc.props_resolved"
	MFwdOracleHits = "bmc.fwd_oracle_hits" // forward checks a group's published depth answered

	// SAT solvers (aggregated across every attached solver).
	MSolves          = "solver.solves"
	MConflicts       = "solver.conflicts"
	MPropagations    = "solver.propagations"
	MBinPropagations = "solver.bin_propagations"
	MDecisions       = "solver.decisions"
	MRestarts        = "solver.restarts"
	MRestartsBlocked = "solver.restarts_blocked"
	MReduceDBs       = "solver.reducedbs"
	MLearntsAdded    = "solver.learnts_added"
	MLearntsDeleted  = "solver.learnts_deleted"
	MSolverClauses   = "solver.clauses"
	MSolverVars      = "solver.vars"
	// LBD clause management.
	MLBDSum    = "solver.lbd_sum"
	MTierCore  = "solver.tier_core"  // gauge: high-water core-tier size
	MTierMid   = "solver.tier_mid"   // gauge: high-water mid-tier size
	MTierLocal = "solver.tier_local" // gauge: high-water local-tier size

	// Unrollers.
	MUnrollGates   = "unroll.gates"
	MStrashHits    = "unroll.strash_hits"
	MUnrollClauses = "unroll.clauses"
	MUnrollVars    = "unroll.aux_vars"

	// EMM constraint generation, per constraint family (§4.1's tally).
	MEMMAddrClauses     = "emm.addr_clauses"
	MEMMReadDataClauses = "emm.readdata_clauses"
	MEMMGates           = "emm.gates"
	MEMMInitPairs       = "emm.init_pairs"
	MEMMInitClauses     = "emm.init_clauses"
	MEMMMemoHits        = "emm.memo_hits"
	MEMMSharedReads     = "emm.shared_reads" // duplicate read events encoded as RD = RD_twin

	// Lazy-EMM refinement (demand-driven axiom instantiation in the
	// refine loop of runs without termination checks, such as bmc2).
	MLazyRounds   = "lazy.rounds"   // model validations run by the oracle
	MLazyAxioms   = "lazy.axioms"   // forwarding axioms instantiated on demand
	MLazySpurious = "lazy.spurious" // SAT models rejected as semantically spurious

	// Demand-driven loop-free-path constraints on the termination checks.
	MLFPPairs  = "lfp.pairs"  // frame-pair distinctness constraints added
	MLFPRounds = "lfp.rounds" // re-solves after a model repeated a state

	// Proof-based abstraction.
	MPBACoreSize     = "pba.core_size"     // gauge: last UNSAT core size
	MPBALatchReasons = "pba.latch_reasons" // gauge: |LR| after the last update

	// Static compile pipeline (package pass): totals removed across all
	// pipeline runs seen by this registry.
	MPassRuns            = "pass.runs"
	MPassNodesRemoved    = "pass.nodes_removed"
	MPassLatchesRemoved  = "pass.latches_removed"
	MPassMemsRemoved     = "pass.mems_removed"
	MPassMemPortsRemoved = "pass.mem_ports_removed"
)

// Counter is a monotonically increasing atomic metric. All methods are
// safe on a nil receiver (no-ops), so layers can attach unconditionally.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c != nil {
		c.v.Add(d)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value metric. Nil-safe like Counter.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Max raises the gauge to v if v is larger (fleet workers publish their
// own depth; the registry keeps the frontier).
func (g *Gauge) Max(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the gauge (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry is a concurrency-safe collection of named counters and gauges.
// Lookup creates on first use; the returned pointers are stable, so hot
// code resolves its metrics once at attach time and then works purely with
// atomics.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
	}
}

// Counter returns (creating if needed) the named counter. Nil on a nil
// registry, which composes with Counter's nil-safe methods.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge; nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Snapshot reads every metric into one map (counters and gauges share the
// namespace by construction).
func (r *Registry) Snapshot() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters)+len(r.gauges))
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	return out
}

// WriteText dumps every metric as scrape-friendly "name value" lines in
// sorted order, with non-identifier characters folded to underscores and
// an emmver_ prefix (the /metrics endpoint of the CLI debug server).
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, err := fmt.Fprintf(w, "emmver_%s %d\n", sanitizeMetricName(name), snap[name]); err != nil {
			return err
		}
	}
	return nil
}

func sanitizeMetricName(name string) string {
	b := []byte(name)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// KV is one structured field on a trace event.
type KV struct {
	K string
	V any
}

// F builds a field.
func F(k string, v any) KV { return KV{K: k, V: v} }

// Event is one trace record. Ev is "start", "end", or "point"; Span links
// a start to its end; DurUS is the span duration in microseconds (end
// events only). Fields carry the event's structured payload, prefixed by
// the observer's base fields (worker/lane attribution).
type Event struct {
	T      time.Time // wall-clock emission time
	Ev     string
	Name   string
	Span   uint64
	DurUS  int64
	Fields []KV
}

// Sink receives trace events. Implementations must be safe for concurrent
// Emit calls: portfolio lanes and fleet workers share one sink.
type Sink interface {
	Emit(Event)
}

// Observer bundles a metrics registry and a trace sink, and is the handle
// the engine layers are wired with. A nil *Observer is fully usable and
// free: spans collapse to zero values, metric lookups return nil.
type Observer struct {
	reg  *Registry
	sink Sink
	ids  *atomic.Uint64
	base []KV
}

// New builds an observer over reg (may be nil: tracing only) and sink (may
// be nil: metrics only).
func New(reg *Registry, sink Sink) *Observer {
	return &Observer{reg: reg, sink: sink, ids: new(atomic.Uint64)}
}

// Registry returns the metrics registry (nil-safe).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// TraceSink returns the trace sink (nil-safe).
func (o *Observer) TraceSink() Sink {
	if o == nil {
		return nil
	}
	return o.sink
}

// Enabled reports whether span emission does anything.
func (o *Observer) Enabled() bool { return o != nil && o.sink != nil }

// With derives an observer whose every event carries the given base fields
// in addition to o's: the fleet engines use it for per-worker attribution.
// The registry, sink, and span-id sequence are shared with o.
func (o *Observer) With(kvs ...KV) *Observer {
	if o == nil {
		return nil
	}
	base := make([]KV, 0, len(o.base)+len(kvs))
	base = append(base, o.base...)
	base = append(base, kvs...)
	return &Observer{reg: o.reg, sink: o.sink, ids: o.ids, base: base}
}

// Counter resolves a registry counter (nil when metrics are off).
func (o *Observer) Counter(name string) *Counter { return o.Registry().Counter(name) }

// Gauge resolves a registry gauge (nil when metrics are off).
func (o *Observer) Gauge(name string) *Gauge { return o.Registry().Gauge(name) }

func (o *Observer) fields(kvs []KV) []KV {
	if len(o.base) == 0 {
		return kvs
	}
	out := make([]KV, 0, len(o.base)+len(kvs))
	out = append(out, o.base...)
	out = append(out, kvs...)
	return out
}

// Span emits a typed start event and returns a handle whose End emits the
// matching end event with the measured duration. Free when no sink is
// attached.
func (o *Observer) Span(name string, kvs ...KV) Span {
	if !o.Enabled() {
		return Span{}
	}
	id := o.ids.Add(1)
	now := time.Now()
	o.sink.Emit(Event{T: now, Ev: "start", Name: name, Span: id, Fields: o.fields(kvs)})
	return Span{o: o, name: name, id: id, start: now}
}

// Point emits a single instantaneous event.
func (o *Observer) Point(name string, kvs ...KV) {
	if !o.Enabled() {
		return
	}
	o.sink.Emit(Event{T: time.Now(), Ev: "point", Name: name, Fields: o.fields(kvs)})
}

// Span is an in-flight traced operation. The zero value is inert.
type Span struct {
	o     *Observer
	name  string
	id    uint64
	start time.Time
}

// End closes the span, attaching the duration and any extra fields.
func (s Span) End(kvs ...KV) {
	if s.o == nil {
		return
	}
	now := time.Now()
	s.o.sink.Emit(Event{
		T:      now,
		Ev:     "end",
		Name:   s.name,
		Span:   s.id,
		DurUS:  now.Sub(s.start).Microseconds(),
		Fields: s.o.fields(kvs),
	})
}
