// Package spec defines the serializable, versioned verification request
// schema shared by every surface that configures an engine run: the
// command-line tools (flags are derived from Spec field tags, see
// RegisterFlags), the emmserved job server (requests carry a Spec as plain
// JSON), and the content-addressed verdict cache (CanonicalKey /
// FamilyKey). A Spec captures exactly the knobs a remote caller may turn —
// engine choice, depth, compile passes, timeout and worker count —
// and converts to bmc.Options with Spec.Options, so there is one schema
// instead of three ad-hoc configuration surfaces.
//
// The zero Spec is valid and means "defaults": Canonical normalizes it to
// the explicit default values, and every consumer compares canonicalized
// specs, so a request that spells a default out and one that omits it are
// the same request.
package spec

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"emmver/internal/aig"
	"emmver/internal/bmc"
	"emmver/internal/pass"
)

// Version is the current schema version. A Spec with Version 0 (unset) is
// read as the current version; consumers reject anything newer.
const Version = 1

// Engine names. All but pba are bmc's engine names (bmc.Options.Engine);
// PBA is the two-phase prove-with-abstraction flow over bmc3. The registry
// in registry.go describes each engine and whether it warm-starts. The
// engine also fixes the EMM encoding: bmc2 instantiates read-over-write
// axioms on demand, the proof engines use the eager encoding (see bmc's
// newWindow).
const (
	EngineBMC1 = bmc.EngineBMC1
	EngineBMC2 = bmc.EngineBMC2
	EngineBMC3 = bmc.EngineBMC3
	EnginePBA  = "pba"
)

// ErrBMC1Memories refuses bmc1 on a design with memories: bmc1 leaves
// memory reads free, so its counter-examples there can be spurious and the
// witness replay rejects them.
var ErrBMC1Memories = errors.New("spec: bmc1 leaves memory reads free and cannot check a design with memories; expand them first (emmv -explicit) or use an EMM engine such as bmc3")

// Duration is a time.Duration that marshals as a human-readable string
// ("30s", "5m") and accepts either a string or integer nanoseconds when
// unmarshaling. It also implements flag.Value, so Spec fields of this type
// register as -flag=5m style duration flags.
type Duration time.Duration

// MarshalJSON renders the duration as its String form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "5m30s" strings or integer nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err == nil {
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("spec: bad duration %q: %v", s, err)
		}
		*d = Duration(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("spec: duration must be a string or integer nanoseconds")
	}
	*d = Duration(ns)
	return nil
}

// String implements flag.Value.
func (d *Duration) String() string {
	if d == nil {
		return "0s"
	}
	return time.Duration(*d).String()
}

// Set implements flag.Value.
func (d *Duration) Set(s string) error {
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Spec is one verification request: which engine, how deep, under which
// compile pipeline and solver configuration. It is a plain JSON document —
// no builders, no unexported state — and the single source of truth for
// the engine flags every CLI registers (the flag name and help text live
// in the field tags; RegisterFlags walks them).
//
// Fields are split into two groups. The semantic fields (Engine, Depth,
// Passes) select *what* is verified and participate in CanonicalKey /
// FamilyKey, the verdict-cache keys. The performance fields (Timeout,
// Jobs) only change how fast the same verdict arrives — the repo's
// equivalence suites pin verdict parity across both — so two requests
// differing only there are cache-equal.
type Spec struct {
	// V is the schema version (0 reads as the current Version).
	V int `json:"v,omitempty"`
	// Engine selects the algorithm; valid names come from the engine
	// registry (registry.go). The usage tag here is a fallback —
	// RegisterFlags renders the real help text from the registry so the
	// CLI surface lists exactly the engines this build has.
	Engine string `json:"engine,omitempty" flag:"engine" usage:"verification engine (see registry)"`
	// Depth is the maximum analysis depth (bmc.Options.MaxDepth).
	Depth int `json:"depth,omitempty" flag:"depth" usage:"maximum analysis depth"`
	// Timeout bounds the wall clock of one run (0 = none).
	Timeout Duration `json:"timeout,omitempty" flag:"timeout" usage:"wall-clock budget (0 = none)"`
	// Jobs bounds worker fan-out (0 = NumCPU, 1 = sequential).
	Jobs int `json:"jobs,omitempty" flag:"jobs" usage:"worker count for parallel runs (0 = all CPUs, 1 = sequential)"`
	// Passes is the static compile pipeline spec ("" = default pipeline,
	// "none" = off, or an explicit comma-separated pass list).
	Passes string `json:"passes,omitempty" flag:"passes" usage:"static compile pipeline: comma-separated passes (default pipeline when empty), or none"`
}

// Default returns the canonical default request: BMC-3 to depth 100 under
// a five-minute budget, default pipeline, all CPUs.
func Default() Spec {
	return Spec{
		V:       Version,
		Engine:  EngineBMC3,
		Depth:   100,
		Timeout: Duration(5 * time.Minute),
	}
}

// Canonical returns s with every defaulted field made explicit and every
// alias collapsed: the version stamped, the engine lowercased (empty →
// bmc3), the pass spec resolved ("" → the default pipeline, "off" →
// "none", whitespace trimmed), and negative counts clamped to 0. Two
// specs that mean the same request canonicalize to the same value;
// CanonicalKey and FamilyKey hash this form.
func (s Spec) Canonical() Spec {
	c := s
	c.V = Version
	c.Engine = strings.ToLower(strings.TrimSpace(c.Engine))
	if c.Engine == "" {
		c.Engine = EngineBMC3
	}
	c.Passes = canonicalPasses(c.Passes)
	if c.Depth < 0 {
		c.Depth = 0
	}
	if c.Jobs < 0 {
		c.Jobs = 0
	}
	if c.Timeout < 0 {
		c.Timeout = 0
	}
	return c
}

// canonicalPasses resolves a pass spec to its explicit normal form: the
// default pipeline spelled out, "off" collapsed to "none", list items
// trimmed. Invalid specs are returned trimmed as-is — Validate reports
// them; canonicalization must not mask the error.
func canonicalPasses(spec string) string {
	spec = strings.TrimSpace(spec)
	switch spec {
	case "":
		return pass.SpecDefault
	case pass.SpecNone, "off":
		return pass.SpecNone
	}
	if err := pass.ValidSpec(spec); err != nil {
		return spec
	}
	parts := strings.Split(spec, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return strings.Join(out, ",")
}

// Validate reports the first problem with s, or nil: a schema version
// this build does not speak, an unknown engine, or an invalid pass spec.
// Options calls it; the server calls it before accepting a job.
func (s Spec) Validate() error {
	if s.V < 0 || s.V > Version {
		return fmt.Errorf("spec: unsupported schema version %d (this build speaks <= %d)", s.V, Version)
	}
	c := s.Canonical()
	if _, ok := LookupEngine(c.Engine); !ok {
		return fmt.Errorf("spec: unknown engine %q (want %s)", c.Engine, strings.Join(EngineNames(), ", "))
	}
	return pass.ValidSpec(c.Passes)
}

// Options converts the spec into the engine configuration it denotes.
// This is the one Spec → bmc.Options path: CLIs, the server, and tests all
// route through it, so "engine=bmc3, depth=24" means the same Options
// everywhere. The engine name is copied as is, except pba, which becomes
// its base engine bmc3 with the paper's stability depth of 10 (RunCtx
// dispatches it to bmc.ProveWithPBA). The mapping is netlist-independent:
// an EMM engine on a memory-free model is plain BMC.
func (s Spec) Options() (bmc.Options, error) {
	if err := s.Validate(); err != nil {
		return bmc.Options{}, err
	}
	c := s.Canonical()
	opt := bmc.Options{
		Engine:   c.Engine,
		MaxDepth: c.Depth,
		Timeout:  time.Duration(c.Timeout),
		Jobs:     c.Jobs,
		Passes:   c.Passes,
	}
	if c.Engine == EnginePBA {
		opt.Engine, opt.StabilityDepth = EngineBMC3, 10
	}
	return opt, nil
}

// FamilyKey hashes the depth-independent semantic content of the spec —
// the engine and the compile pipeline. Two requests with the same
// FamilyKey over the same compiled netlist are the *same verification
// problem at different depths*: a cached NO_CE at depth k answers any
// request up to k outright and warm-starts deeper ones from k+1. The
// performance fields (Timeout, Jobs) are deliberately excluded: the
// engine equivalence suites pin that they never change verdicts, only
// wall-clock.
func (s Spec) FamilyKey() string {
	return hashKey(s.familyContent())
}

// CanonicalKey hashes the full semantic content — FamilyKey plus the
// depth — and is the exact-match verdict-cache key: equal CanonicalKey
// (plus equal netlist key) means the cached verdict answers the request
// verbatim.
func (s Spec) CanonicalKey() string {
	c := s.Canonical()
	return hashKey(s.familyContent() + fmt.Sprintf("|depth=%d", c.Depth))
}

func (s Spec) familyContent() string {
	c := s.Canonical()
	return fmt.Sprintf("emmver-spec-v%d|engine=%s|passes=%s", Version, c.Engine, c.Passes)
}

// ProblemKey hashes the engine- and depth-independent content of the spec —
// only the compile pipeline. Two requests with the same ProblemKey over the
// same compiled netlist ask about the *same property of the same model*,
// just with different engines or bounds. The verdict cache uses it for the
// one verdict kind that transfers across both dimensions: a PROOF states
// the property holds at every depth, so a bmc3 proof answers later
// bmc1/bmc3 requests at any bound. CE and NO_CE verdicts stay on
// FamilyKey — an engine without termination checks legitimately reports
// NO_CE where a proving engine reports PROOF, and the cache must not blur
// that observable difference.
func (s Spec) ProblemKey() string {
	c := s.Canonical()
	return hashKey(fmt.Sprintf("emmver-spec-problem-v%d|passes=%s", Version, c.Passes))
}

func hashKey(content string) string {
	sum := sha256.Sum256([]byte(content))
	return hex.EncodeToString(sum[:])
}

// WarmEligible reports whether the engine behind s supports warm-started
// runs (bmc.Options.StartDepth, the registry's Warm column): the
// single-engine BMC flows do; the two-phase PBA flow re-derives its
// abstraction from depth 0 and does not.
func (s Spec) WarmEligible() bool {
	info, ok := LookupEngine(s.Canonical().Engine)
	return ok && info.Warm
}

// CheckModel reports whether the engine behind s can check n: it returns
// ErrBMC1Memories for bmc1 on a design with memories, else nil.
func (s Spec) CheckModel(n *aig.Netlist) error {
	if s.Canonical().Engine == EngineBMC1 && len(n.Memories) > 0 {
		return ErrBMC1Memories
	}
	return nil
}

// RunCtx executes the request against property prop of n — the one
// engine-dispatch path shared by the facade, the CLIs' remote mode, and
// the job server. startDepth > 0 warm-starts the BMC loop (the caller
// asserts depths below it are known counter-example-free, e.g. from a
// cached shallower verdict); it is ignored by the PBA flow. For EnginePBA
// the returned Result is the final proof phase when one ran, otherwise the
// phase-1 result — the same collapse emmv renders for -engine pba. A
// model the engine cannot check (CheckModel) is refused before solving.
func (s Spec) RunCtx(ctx context.Context, n *aig.Netlist, prop int, startDepth int, extend func(*bmc.Options)) (*bmc.Result, error) {
	opt, err := s.Options()
	if err != nil {
		return nil, err
	}
	if err := s.CheckModel(n); err != nil {
		return nil, err
	}
	if extend != nil {
		extend(&opt)
	}
	if s.Canonical().Engine == EnginePBA {
		res := bmc.ProveWithPBACtx(ctx, n, prop, opt)
		if res.Proof != nil {
			return res.Proof, nil
		}
		return res.Phase1, nil
	}
	if startDepth > 0 && s.WarmEligible() {
		opt.StartDepth = startDepth
	}
	return bmc.CheckCtx(ctx, n, prop, opt), nil
}
