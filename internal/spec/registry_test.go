package spec

import (
	"errors"
	"flag"
	"slices"
	"strings"
	"testing"
)

// The capability resolver contract: for every engine, a spec with -lazy
// is either honored in full — Options succeeds and the knob reaches
// Options.LazyEMM — or rejected with a descriptive *CapabilityError naming
// the engine and the knob. The knob may never be silently ignored.
func TestCapabilityResolver(t *testing.T) {
	for _, info := range Engines() {
		for _, lazy := range []bool{false, true} {
			s := Default()
			s.Engine = info.Name
			s.Lazy = lazy
			opt, err := s.Options()
			if lazy && !info.Has(CapLazy) {
				var ce *CapabilityError
				if !errors.As(err, &ce) {
					t.Errorf("%s -lazy: want a *CapabilityError, got %v", info.Name, err)
					continue
				}
				if ce.Engine != info.Name || ce.Knob != "lazy" || ce.Reason == "" {
					t.Errorf("%s: undescriptive CapabilityError: %+v", info.Name, ce)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s lazy=%v: supported combination rejected: %v", info.Name, lazy, err)
				continue
			}
			// Honored means the knob actually reaches the engine options.
			if opt.LazyEMM != lazy {
				t.Errorf("%s: -lazy=%v dropped on the floor (opt lazy=%v)", info.Name, lazy, opt.LazyEMM)
			}
		}
	}
}

// Unknown engines must fail Validate with the full registry listed, and
// every registered engine must validate and canonicalize to itself.
func TestRegistryValidation(t *testing.T) {
	s := Spec{Engine: "bdd"}
	err := s.Validate()
	if err == nil {
		t.Fatal("unknown engine accepted")
	}
	for _, name := range EngineNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-engine error does not list %s: %v", name, err)
		}
	}
	for _, name := range EngineNames() {
		s := Spec{Engine: name}
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got := s.Canonical().Engine; got != name {
			t.Errorf("%s canonicalized to %q", name, got)
		}
	}
}

// The -engine usage string is generated from the registry — one source of
// truth. The drift test pins that every registered engine (and nothing
// else shaped like an engine list) appears in the flag's help text.
func TestEngineUsageDerivedFromRegistry(t *testing.T) {
	s := Default()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterFlags(fs, &s)
	usage := fs.Lookup("engine").Usage
	if usage != EngineUsage() {
		t.Errorf("-engine usage diverged from EngineUsage():\n  flag: %s\n  reg:  %s", usage, EngineUsage())
	}
	for _, info := range Engines() {
		if !strings.Contains(usage, info.Name+" (") {
			t.Errorf("-engine usage missing registry engine %s: %s", info.Name, usage)
		}
		if info.Summary == "" {
			t.Errorf("engine %s has no summary", info.Name)
		}
	}
}

// The capability-gated knobs' usage strings name exactly the engines the
// registry lets honor them, so the help text cannot drift from Validate.
func TestKnobUsageDerivedFromRegistry(t *testing.T) {
	s := Default()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterFlags(fs, &s)
	for knob, c := range knobCaps {
		usage := fs.Lookup(knob).Usage
		var want []string
		for _, info := range Engines() {
			probe := Default()
			probe.Engine = info.Name
			switch knob {
			case "lazy":
				probe.Lazy = true
			default:
				t.Fatalf("no probe for knob -%s", knob)
			}
			if probe.Validate() == nil {
				want = append(want, info.Name)
			}
		}
		if !slices.Equal(want, enginesWith(c)) {
			t.Errorf("-%s: Validate accepts %v, registry lists %v", knob, want, enginesWith(c))
		}
		if suffix := " (engines: " + strings.Join(want, ", ") + ")"; !strings.HasSuffix(usage, suffix) {
			t.Errorf("-%s usage %q does not end in %q", knob, usage, suffix)
		}
	}
}

// Every engine must declare a coherent capability set: warm-start
// eligibility and the proof index both read the registry, so the bits new
// rows declare are load-bearing.
func TestRegistryCoherence(t *testing.T) {
	for _, info := range Engines() {
		s := Spec{Engine: info.Name}
		if got := s.WarmEligible(); got != info.Has(CapWarm) {
			t.Errorf("%s: WarmEligible=%v, registry CapWarm=%v", info.Name, got, info.Has(CapWarm))
		}
	}
	// Lazy needs an EMM-constrained CE path; an engine claiming CapLazy
	// without EMM would silently no-op the knob at the engine layer.
	for _, name := range []string{EngineBMC2, EngineBMC3, EngineKInd} {
		info, ok := LookupEngine(name)
		if !ok || !info.Has(CapLazy) {
			t.Errorf("%s: expected CapLazy", name)
		}
	}
	if info, _ := LookupEngine(EngineBMC1); info.Has(CapLazy) {
		t.Error("bmc1 has no EMM constraints; CapLazy must be off")
	}
	if info, _ := LookupEngine(EnginePBA); info.Has(CapLazy) {
		t.Error("pba proof tracing excludes lazy")
	}
}
