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

// Cache is the content-addressed verdict store. All methods are safe for
// concurrent use.
type Cache struct {
	mu       sync.Mutex
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

	hits   int64 // exact answers served without solver work
	warm   int64 // answers that warm-started a run
	misses int64
	stores int64
}

// NewCache returns a cache bounded to at most cap families (<= 0 selects
// the default 1024); the least-recently-touched family is evicted first.
func NewCache(cap int) *Cache {
	if cap <= 0 {
		cap = 1024
	}
	return &Cache{
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
	tally := func(p *int64) {
		if count {
			*p++
		}
	}
	// The proof index answers first: an unbounded proof holds for every
	// engine and every depth, so it beats whatever the requesting engine's
	// own family knows.
	if pe := c.proofs[problemID]; pe != nil {
		c.clock++
		pe.used = c.clock
		tally(&c.hits)
		return &Hit{Verdict: stripForeignWitness(pe.v, sourceKey), Exact: true}
	}
	f := c.families[familyID]
	if f == nil {
		tally(&c.misses)
		return nil
	}
	c.clock++
	f.used = c.clock
	switch {
	case f.proof != nil:
		tally(&c.hits)
		return &Hit{Verdict: stripForeignWitness(f.proof, sourceKey), Exact: true}
	case f.ce != nil && f.ce.Depth <= depth:
		tally(&c.hits)
		return &Hit{Verdict: stripForeignWitness(f.ce, sourceKey), Exact: true}
	case f.noCE != nil && f.noCE.Depth >= depth:
		tally(&c.hits)
		v := *f.noCE
		v.Depth = depth // the frontier covers the shallower request
		return &Hit{Verdict: &v, Exact: true}
	case f.noCE != nil:
		tally(&c.warm)
		return &Hit{Verdict: f.noCE, WarmFrom: f.noCE.Depth + 1}
	}
	tally(&c.misses)
	return nil
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
		c.evictLocked()
	}
	c.clock++
	f.used = c.clock
	c.stores++
	switch v.Kind {
	case "PROOF":
		f.proof = v
		c.proofs[problemID] = &proofEntry{v: v, used: c.clock}
		c.evictProofsLocked()
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

func (c *Cache) evictLocked() {
	for len(c.families) > c.cap {
		var oldest string
		var min int64 = 1<<63 - 1
		for id, f := range c.families {
			if f.used < min {
				min, oldest = f.used, id
			}
		}
		delete(c.families, oldest)
	}
}

// evictProofsLocked bounds the proof index by the same capacity and LRU
// clock as the family map (it grows at most one entry per PROOF store, so
// in practice it stays far smaller).
func (c *Cache) evictProofsLocked() {
	for len(c.proofs) > c.cap {
		var oldest string
		var min int64 = 1<<63 - 1
		for id, pe := range c.proofs {
			if pe.used < min {
				min, oldest = pe.used, id
			}
		}
		delete(c.proofs, oldest)
	}
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Families int   `json:"families"`
	Hits     int64 `json:"hits"`
	WarmHits int64 `json:"warm_hits"`
	Misses   int64 `json:"misses"`
	Stores   int64 `json:"stores"`
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Families: len(c.families),
		Hits:     c.hits,
		WarmHits: c.warm,
		Misses:   c.misses,
		Stores:   c.stores,
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
