package serve

import (
	"sync"

	"emmver/internal/bmc"
	"emmver/internal/spec"
)

// Verdict is the serializable outcome of one verification run, the value
// the cache stores and the server returns.
type Verdict struct {
	Kind      string       `json:"kind"` // NO_CE, CE, PROOF, STABLE, TIMEOUT
	Depth     int          `json:"depth"`
	ProofSide string       `json:"proof_side,omitempty"`
	Witness   *bmc.Witness `json:"witness,omitempty"`
	ElapsedMS int64        `json:"elapsed_ms"`
	// SourceKey identifies the submission whose node coordinates the
	// witness uses; the cache strips the witness when serving a request
	// with a different source.
	SourceKey string `json:"-"`
}

func verdictOf(r *bmc.Result, sourceKey string) *Verdict {
	return &Verdict{
		Kind:      r.Kind.String(),
		Depth:     r.Depth,
		ProofSide: r.ProofSide,
		Witness:   r.Witness,
		ElapsedMS: r.Stats.Elapsed.Milliseconds(),
		SourceKey: sourceKey,
	}
}

// Hit is a cache answer: the verdict plus how it was derived.
type Hit struct {
	Verdict *Verdict
	// Exact is true when the cached verdict answers the request outright
	// (no solver work). False means the verdict is a shallower NO_CE
	// frontier: run the engine, warm-started from WarmFrom.
	Exact bool
	// WarmFrom is the depth a non-exact hit may start checking at (the
	// frontier + 1); 0 on exact hits and cold misses.
	WarmFrom int
}

// family accumulates everything known about one verification problem —
// one (structural netlist, engine, passes) triple — across all depths.
type family struct {
	proof *Verdict // PROOF holds at every depth
	ce    *Verdict // shallowest counter-example; answers any depth >= it
	noCE  *Verdict // deepest counter-example-free frontier
	used  int64    // LRU clock tick of the last touch
}

// proofEntry is one engine-independent proof index record.
type proofEntry struct {
	v    *Verdict
	used int64
}

// sourceEntry is one source index record: the netlist key that parsing
// and compiling a submission's exact bytes produced.
type sourceEntry struct {
	netKey string
	used   int64
}

// Cache is the content-addressed verdict store. All methods are safe for
// concurrent use.
type Cache struct {
	mu sync.Mutex
	// sources is the source index, the cache's first layer: it maps a
	// submission as written (sourceIndexKey) to the NetlistKey its parse
	// and compile produced, so a byte-identical resubmission finds its
	// family without being parsed again.
	sources  map[string]*sourceEntry
	families map[string]*family
	// proofs is the engine-independent proof index: a PROOF verdict states
	// a truth about the problem (netlist + passes), not about the engine
	// that found it, so it is stored a second time under the engine-free
	// ProblemID and answers submissions from *any* engine at any depth —
	// a BMC-3 proof short-circuits every later BMC-1 request on the same
	// design. CE and NO_CE entries stay per-family:
	// a frontier is only meaningful to the engine flow that produced it.
	proofs map[string]*proofEntry
	cap    int
	clock  int64

	hits       int64 // exact answers served without solver work
	sourceHits int64 // the hits among them the source index answered
	warm       int64 // answers that warm-started a run
	misses     int64
	stores     int64
}

// NewCache returns a cache bounded to at most cap families (<= 0 selects
// the default 1024); the least-recently-touched family is evicted first.
func NewCache(cap int) *Cache {
	if cap <= 0 {
		cap = 1024
	}
	return &Cache{
		sources:  make(map[string]*sourceEntry),
		families: make(map[string]*family),
		proofs:   make(map[string]*proofEntry),
		cap:      cap,
	}
}

// FamilyID combines the structural netlist hash with the request's
// depth-independent semantic fields into the cache bucket key.
func FamilyID(netlistKey string, s spec.Spec) string {
	return netlistKey + ":" + s.FamilyKey()
}

// ProblemID is the engine-independent bucket key for the proof index: the
// structural netlist hash plus only the fields that change what is being
// asked (spec.ProblemKey — passes, not engine or depth).
func ProblemID(netlistKey string, s spec.Spec) string {
	return netlistKey + ":" + s.ProblemKey()
}

// Lookup consults the cache for a request at the given depth. A decisive
// entry (PROOF anywhere — found by this engine or any other — CE at
// <= depth, NO_CE frontier at >= depth) returns an exact hit; a shallower
// NO_CE frontier returns a non-exact hit carrying the warm-start depth;
// otherwise nil. Witnesses are only included when sourceKey matches the
// run that produced them — verdicts transfer across isomorphic
// submissions, node coordinates do not.
func (c *Cache) Lookup(familyID, problemID string, depth int, sourceKey string) *Hit {
	return c.lookup(familyID, problemID, depth, sourceKey, true)
}

// Peek is Lookup without touching the hit/miss counters — the worker's
// pre-solve re-check uses it so one request is accounted exactly once.
func (c *Cache) Peek(familyID, problemID string, depth int, sourceKey string) *Hit {
	return c.lookup(familyID, problemID, depth, sourceKey, false)
}

func (c *Cache) lookup(familyID, problemID string, depth int, sourceKey string, count bool) *Hit {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, tally := c.lookupLocked(familyID, problemID, depth, sourceKey)
	if count {
		*tally++
	}
	return h
}

// LookupSource answers a submission from the source index, before it is
// parsed. idx is the submission's sourceIndexKey and s its spec. When the
// index knows idx and the family it names under s holds an exact answer at
// depth, LookupSource returns the hit, counted as a hit and a source hit,
// and the indexed netlist key. Otherwise it returns nil and counts
// nothing: the submission takes the parse path, whose Lookup counts it, so
// each request is counted once.
func (c *Cache) LookupSource(idx string, s spec.Spec, depth int, sourceKey string) (*Hit, string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.sources[idx]
	if e == nil {
		return nil, ""
	}
	c.clock++
	e.used = c.clock
	h, _ := c.lookupLocked(FamilyID(e.netKey, s), ProblemID(e.netKey, s), depth, sourceKey)
	if h == nil || !h.Exact {
		return nil, ""
	}
	c.hits++
	c.sourceHits++
	return h, e.netKey
}

// IndexSource records in the source index that the submission idx parses
// and compiles to netKey. Only a submission that parsed, compiled and named
// a property of its design is indexed.
func (c *Cache) IndexSource(idx, netKey string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.clock++
	if e := c.sources[idx]; e != nil {
		e.used = c.clock
		return
	}
	c.sources[idx] = &sourceEntry{netKey: netKey, used: c.clock}
	evictLRU(c.sources, c.cap, func(e *sourceEntry) int64 { return e.used })
}

// lookupLocked finds the answer for a request and the counter it falls
// under; the caller holds c.mu and decides whether to count it.
func (c *Cache) lookupLocked(familyID, problemID string, depth int, sourceKey string) (*Hit, *int64) {
	// The proof index answers first: an unbounded proof holds for every
	// engine and every depth, so it beats whatever the requesting engine's
	// own family knows.
	if pe := c.proofs[problemID]; pe != nil {
		c.clock++
		pe.used = c.clock
		return &Hit{Verdict: stripForeignWitness(pe.v, sourceKey), Exact: true}, &c.hits
	}
	f := c.families[familyID]
	if f == nil {
		return nil, &c.misses
	}
	c.clock++
	f.used = c.clock
	switch {
	case f.proof != nil:
		return &Hit{Verdict: stripForeignWitness(f.proof, sourceKey), Exact: true}, &c.hits
	case f.ce != nil && f.ce.Depth <= depth:
		return &Hit{Verdict: stripForeignWitness(f.ce, sourceKey), Exact: true}, &c.hits
	case f.noCE != nil && f.noCE.Depth >= depth:
		v := *f.noCE
		v.Depth = depth // the frontier covers the shallower request
		return &Hit{Verdict: &v, Exact: true}, &c.hits
	case f.noCE != nil:
		return &Hit{Verdict: f.noCE, WarmFrom: f.noCE.Depth + 1}, &c.warm
	}
	return nil, &c.misses
}

// Store records a completed run's verdict under its family. Timeouts and
// PBA-stable stops are not cached — they answer nothing about other
// budgets. NO_CE entries only advance the frontier; CE entries keep the
// shallowest counter-example (deeper re-discoveries add nothing). A PROOF
// is additionally published to the engine-independent proof index under
// problemID, where it answers future submissions from every engine.
func (c *Cache) Store(familyID, problemID string, v *Verdict) {
	if v == nil || v.Kind == "TIMEOUT" || v.Kind == "STABLE" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	f := c.families[familyID]
	if f == nil {
		f = &family{}
		c.families[familyID] = f
		evictLRU(c.families, c.cap, func(f *family) int64 { return f.used })
	}
	c.clock++
	f.used = c.clock
	c.stores++
	switch v.Kind {
	case "PROOF":
		f.proof = v
		c.proofs[problemID] = &proofEntry{v: v, used: c.clock}
		evictLRU(c.proofs, c.cap, func(pe *proofEntry) int64 { return pe.used })
	case "CE":
		if f.ce == nil || v.Depth < f.ce.Depth {
			f.ce = v
		}
	case "NO_CE":
		if f.noCE == nil || v.Depth > f.noCE.Depth {
			f.noCE = v
		}
	}
}

// evictLRU drops the least-recently-used entries of one of the cache's
// maps until at most cap remain. The family map, the proof index and the
// source index are each bounded by the cache's capacity and age on its one
// LRU clock (the proof index grows at most one entry per PROOF store, so
// in practice it stays far smaller).
func evictLRU[E any](m map[string]E, cap int, used func(E) int64) {
	for len(m) > cap {
		var oldest string
		var min int64 = 1<<63 - 1
		for id, e := range m {
			if u := used(e); u < min {
				min, oldest = u, id
			}
		}
		delete(m, oldest)
	}
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Families int   `json:"families"`
	Hits     int64 `json:"hits"`
	// SourceHits counts the hits the source index answered before any
	// parse; they are also counted in Hits.
	SourceHits int64 `json:"source_hits"`
	WarmHits   int64 `json:"warm_hits"`
	Misses     int64 `json:"misses"`
	Stores     int64 `json:"stores"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Families:   len(c.families),
		Hits:       c.hits,
		SourceHits: c.sourceHits,
		WarmHits:   c.warm,
		Misses:     c.misses,
		Stores:     c.stores,
	}
}

func stripForeignWitness(v *Verdict, sourceKey string) *Verdict {
	if v.Witness == nil || v.SourceKey == sourceKey {
		return v
	}
	out := *v
	out.Witness = nil
	return &out
}
