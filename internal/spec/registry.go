package spec

import (
	"fmt"
	"strings"
)

// Capability is one orthogonal engine feature the serving layer relies
// on. Every engine declares the set it supports in the registry below;
// warm-start eligibility reads it.
type Capability uint32

const (
	// CapWarm: the engine honors warm-started deepening
	// (bmc.Options.StartDepth), so a cached NO_CE frontier can resume it.
	CapWarm Capability = 1 << iota
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
// what each one is, and which capabilities it has. Validate, the
// -engine usage string and WarmEligible derive from it; adding an engine
// means adding exactly one row here plus the engine itself in package bmc,
// under the same name.
var engineRegistry = []EngineInfo{
	{EngineBMC1, "plain BMC + induction proofs (Fig. 1)", CapWarm},
	{EngineBMC2, "EMM falsification (Fig. 2)", CapWarm},
	{EngineBMC3, "EMM + induction proofs (Fig. 3)", CapWarm},
	{EnginePBA, "two-phase prove-with-abstraction", 0},
	{EngineKInd, "EMM k-induction: unbounded proofs via strengthened simple-path induction", CapWarm},
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
