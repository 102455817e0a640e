package spec

import (
	"fmt"
	"strings"
)

// Capability is one orthogonal engine feature a performance knob may
// require. Every engine declares the set it supports in the registry below;
// Validate checks each requested knob against that set and rejects the
// combination with a *CapabilityError instead of silently ignoring the
// knob. This replaces the eligibility gates that used to be scattered
// through the engine code (lazy vs pba/cube/dist, share vs pba, ...): there
// is exactly one table, and a spec that passes Validate is honored in full.
type Capability uint32

const (
	// CapLazy: the engine's queries can run the demand-driven EMM axiom
	// instantiation (-lazy).
	CapLazy Capability = 1 << iota
	// CapShare: the engine's solvers can attach to the learnt-clause
	// sharing bus (-share).
	CapShare
	// CapCube: the engine's counter-example check can be partitioned over
	// EMM address comparators (-cube).
	CapCube
	// CapDist: the engine can broker or join a cross-process fleet
	// (-listen/-connect).
	CapDist
	// CapWarm: the engine honors warm-started deepening
	// (bmc.Options.StartDepth), so a cached NO_CE frontier can resume it.
	CapWarm
	// CapProof: the engine can return PROOF verdicts (termination checks),
	// so its results feed the engine-independent proof index of the
	// verdict cache.
	CapProof
)

// Has reports whether c includes want.
func (c Capability) Has(want Capability) bool { return c&want == want }

// EngineInfo is one registry entry: the engine's canonical name, the short
// summary rendered into the -engine usage string, and its capability set.
type EngineInfo struct {
	Name    string
	Summary string
	Caps    Capability
}

// Has reports whether the engine supports the capability.
func (e EngineInfo) Has(c Capability) bool { return e.Caps.Has(c) }

// engineRegistry is the single source of truth for which engines exist,
// what each one is, and which performance knobs it supports. Validate, the
// -engine usage string, WarmEligible, and the serve-layer proof index all
// derive from it; adding an engine means adding exactly one row here plus
// its Options mapping.
var engineRegistry = []EngineInfo{
	{EngineBMC1, "plain BMC + induction proofs (Fig. 1)",
		CapShare | CapDist | CapWarm | CapProof},
	{EngineBMC2, "EMM falsification (Fig. 2)",
		CapLazy | CapShare | CapCube | CapDist | CapWarm},
	{EngineBMC3, "EMM + induction proofs (Fig. 3)",
		CapLazy | CapShare | CapCube | CapDist | CapWarm | CapProof},
	{EnginePBA, "two-phase prove-with-abstraction",
		CapProof},
	{EnginePortfolio, "bmc3 with per-depth forward/backward lane racing",
		CapLazy | CapShare | CapCube | CapDist | CapWarm | CapProof},
	{EngineKInd, "EMM k-induction: unbounded proofs via strengthened simple-path induction",
		CapLazy | CapShare | CapWarm | CapProof},
}

// Engines returns the registry rows in canonical order.
func Engines() []EngineInfo {
	out := make([]EngineInfo, len(engineRegistry))
	copy(out, engineRegistry)
	return out
}

// EngineNames lists the registered engine names in canonical order.
func EngineNames() []string {
	out := make([]string, len(engineRegistry))
	for i, e := range engineRegistry {
		out[i] = e.Name
	}
	return out
}

// LookupEngine resolves a canonical engine name against the registry.
func LookupEngine(name string) (EngineInfo, bool) {
	for _, e := range engineRegistry {
		if e.Name == name {
			return e, true
		}
	}
	return EngineInfo{}, false
}

// EngineUsage renders the -engine flag's help text from the registry, so
// the CLI surface cannot drift from the engines this build actually has.
func EngineUsage() string {
	var b strings.Builder
	b.WriteString("verification engine: ")
	for i, e := range engineRegistry {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s (%s)", e.Name, e.Summary)
	}
	return b.String()
}

// knobCaps maps each capability-gated Spec knob, flag-spelled, to the
// capability an engine needs to honor it.
var knobCaps = map[string]Capability{
	"lazy":  CapLazy,
	"share": CapShare,
	"cube":  CapCube,
}

// enginesWith lists, in registry order, the engines that support c.
func enginesWith(c Capability) []string {
	var out []string
	for _, e := range engineRegistry {
		if e.Has(c) {
			out = append(out, e.Name)
		}
	}
	return out
}

// knobUsage completes a capability-gated flag's help text with the engines
// that honor the knob, rendered from the registry like EngineUsage. Other
// flags' usage is returned unchanged.
func knobUsage(name, usage string) string {
	if c, ok := knobCaps[name]; ok {
		return fmt.Sprintf("%s (engines: %s)", usage, strings.Join(enginesWith(c), ", "))
	}
	return usage
}

// CapabilityError reports a knob the selected engine does not support. It
// is a typed rejection: callers (CLIs, the job server) surface Reason
// verbatim, and the capability-sweep test asserts every unsupported
// (engine, knob) pair returns one of these rather than silently dropping
// the knob.
type CapabilityError struct {
	// Engine is the canonical engine name.
	Engine string
	// Knob is the flag-spelled name of the rejected option ("lazy",
	// "share", "cube", "dist").
	Knob string
	// Reason says why the combination is unsupported.
	Reason string
}

// Error implements error.
func (e *CapabilityError) Error() string {
	return fmt.Sprintf("spec: -%s is not supported by engine %s: %s", e.Knob, e.Engine, e.Reason)
}

// knobReasons explains each capability rejection in engine-independent
// terms; the engine name in the error locates the offending row.
var knobReasons = map[string]string{
	"lazy":  "demand-driven EMM instantiates read-over-write axioms as each query's models demand; this engine cannot run its queries on the relaxation (no EMM constraints, or proof tracing attributes relevance to eagerly tagged clauses)",
	"share": "the learnt-clause sharing bus relocates lemmas between workers; under PBA proof tracing an imported clause would corrupt latch-reason attribution",
	"cube":  "cube-and-conquer partitions the search over EMM address comparators; this engine either builds no EMM comparators or runs a flow the cube depth loop does not implement",
	"dist":  "the distributed fleet brokers cubes and clauses between processes; this engine's flow is not wired into the cross-process depth loop",
}

// lazyCubeReason explains the one knob pair rejected on every engine.
const lazyCubeReason = "with -cube: cube-and-conquer splits over the eager EMM address comparators, so its fleet would solve eagerly; drop -lazy or -cube"

// checkCapabilities validates every requested knob of the canonical spec c
// against the engine's declared capability set. It is the one central
// resolver: a nil return means every knob in c is honored end to end.
func checkCapabilities(c Spec, info EngineInfo) error {
	for _, r := range []struct {
		on   bool
		knob string
	}{{c.Lazy, "lazy"}, {c.Share, "share"}, {c.Cube, "cube"}} {
		if r.on && !info.Has(knobCaps[r.knob]) {
			return &CapabilityError{Engine: info.Name, Knob: r.knob, Reason: knobReasons[r.knob]}
		}
	}
	if c.Lazy && c.Cube {
		return &CapabilityError{Engine: info.Name, Knob: "lazy", Reason: lazyCubeReason}
	}
	return nil
}

// DistCapable reports whether the engine named by s can join or broker a
// distributed fleet; callers get the same typed error the other knobs
// produce. Netlist-dependent conditions (environment constraints) remain
// runtime checks in bmc.DistEligible — this covers the engine dimension.
func (s Spec) DistCapable() error {
	c := s.Canonical()
	info, ok := LookupEngine(c.Engine)
	if !ok {
		return fmt.Errorf("spec: unknown engine %q (want %s)", c.Engine, strings.Join(EngineNames(), ", "))
	}
	if !info.Has(CapDist) {
		return &CapabilityError{Engine: info.Name, Knob: "dist", Reason: knobReasons["dist"]}
	}
	return nil
}
