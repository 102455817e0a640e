package spec

import (
	"flag"
	"strings"
	"testing"
)

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

// Warm-start eligibility reads the registry's Warm column: every engine but
// pba honors a warm-start frontier.
func TestRegistryCoherence(t *testing.T) {
	for _, info := range Engines() {
		s := Spec{Engine: info.Name}
		want := info.Name != EnginePBA
		if got := s.WarmEligible(); got != want || info.Warm != want {
			t.Errorf("%s: WarmEligible=%v, registry Warm=%v, want %v", info.Name, got, info.Warm, want)
		}
	}
}
