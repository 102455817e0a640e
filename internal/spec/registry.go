package spec

import (
	"fmt"
	"strings"
)

// EngineInfo is one registry entry: the engine's canonical name, the short
// summary rendered into the -engine usage string, and whether the engine
// honors warm-started deepening (bmc.Options.StartDepth), so that a cached
// NO_CE frontier can resume it.
type EngineInfo struct {
	Name    string
	Summary string
	Warm    bool
}

// engineRegistry is the single source of truth for which engines exist,
// what each one is, and which of them warm-start. Validate, the
// -engine usage string and WarmEligible derive from it; adding an engine
// means adding exactly one row here plus the engine itself in package bmc,
// under the same name.
var engineRegistry = []EngineInfo{
	{EngineBMC1, "plain BMC + induction proofs (Fig. 1)", true},
	{EngineBMC2, "EMM falsification (Fig. 2)", true},
	{EngineBMC3, "EMM + induction proofs (Fig. 3)", true},
	{EnginePBA, "two-phase prove-with-abstraction", false},
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
