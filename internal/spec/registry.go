package spec

import (
	"fmt"
	"strings"
)

// Capability is one orthogonal engine feature a performance knob may
// require. Every engine declares the set it supports in the registry below;
// Validate checks each requested knob against that set and rejects the
// combination with a *CapabilityError instead of silently ignoring the
// knob. There is exactly one table, and a spec that passes Validate is
// honored in full.
type Capability uint32

const (
	// CapLazy: the engine's queries can run the demand-driven EMM axiom
	// instantiation (-lazy).
	CapLazy Capability = 1 << iota
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
		CapWarm | CapProof},
	{EngineBMC2, "EMM falsification (Fig. 2)",
		CapLazy | CapWarm},
	{EngineBMC3, "EMM + induction proofs (Fig. 3)",
		CapLazy | CapWarm | CapProof},
	{EnginePBA, "two-phase prove-with-abstraction",
		CapProof},
	{EngineKInd, "EMM k-induction: unbounded proofs via strengthened simple-path induction",
		CapLazy | CapWarm | CapProof},
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
	"lazy": CapLazy,
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
	// Knob is the flag-spelled name of the rejected option ("lazy").
	Knob string
	// Reason says why the combination is unsupported.
	Reason string
}

// Error implements error.
func (e *CapabilityError) Error() string {
	return fmt.Sprintf("spec: -%s is not supported by engine %s: %s", e.Knob, e.Engine, e.Reason)
}

// lazyReason explains why an engine without CapLazy rejects -lazy.
const lazyReason = "demand-driven EMM instantiates read-over-write axioms as each query's models demand; this engine cannot run its queries on the relaxation (no EMM constraints, or proof tracing attributes relevance to eagerly tagged clauses)"

// checkCapabilities validates every requested knob of the canonical spec c
// against the engine's declared capability set. It is the one central
// resolver: a nil return means every knob in c is honored end to end.
func checkCapabilities(c Spec, info EngineInfo) error {
	if c.Lazy && !info.Has(CapLazy) {
		return &CapabilityError{Engine: info.Name, Knob: "lazy", Reason: lazyReason}
	}
	return nil
}
