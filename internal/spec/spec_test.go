package spec

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"strings"
	"testing"
	"time"

	"emmver/internal/aig"
	"emmver/internal/bmc"
	"emmver/internal/expmem"
	"emmver/internal/pass"
	"emmver/internal/rtl"
)

// Every engine's Spec carries each performance knob straight into the
// Options field the engine reads: the converter is the API contract that
// CLIs, server, and cache speak one schema.
func TestOptionsCarriesEveryKnob(t *testing.T) {
	for _, info := range Engines() {
		s := Default()
		s.Engine = info.Name
		s.Depth = 42
		s.Timeout = Duration(90 * time.Second)
		s.Jobs = 3
		s.Passes = "coi,sweep"
		opt, err := s.Options()
		if err != nil {
			t.Fatalf("%s: Options: %v", info.Name, err)
		}
		if opt.MaxDepth != 42 || opt.Timeout != 90*time.Second || opt.Jobs != 3 ||
			opt.Passes != "coi,sweep" {
			t.Errorf("%s: knobs lost: %+v", info.Name, opt)
		}
	}
}

// Every registered engine converts to the bmc engine of the same name —
// except pba, which is the PBA flow over bmc3 at the paper's stability
// depth — and bmc accepts the name.
func TestOptionsEngineMapping(t *testing.T) {
	n, _, err := expmem.Expand(zeroROM())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range EngineNames() {
		opt, err := Spec{Engine: name, Depth: 3}.Options()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		wantEngine, wantStab := name, 0
		if name == EnginePBA {
			wantEngine, wantStab = bmc.EngineBMC3, 10
		}
		if opt.Engine != wantEngine || opt.StabilityDepth != wantStab || opt.MaxDepth != 3 {
			t.Errorf("%s: Engine=%q StabilityDepth=%d MaxDepth=%d, want %q, %d, 3",
				name, opt.Engine, opt.StabilityDepth, opt.MaxDepth, wantEngine, wantStab)
		}
		if r := bmc.Check(n, 0, opt); r.Kind == bmc.KindCE {
			t.Errorf("%s: %v on a valid property", name, r)
		}
	}
}

// zeroROM is a zero-initialized memory nothing writes, with the valid
// property that every read returns zero. Memory reads left free (bmc1)
// violate it at depth 0.
func zeroROM() *aig.Netlist {
	m := rtl.NewModule("zero-rom")
	mem := m.Memory("mem", 2, 2, aig.MemZero)
	rd := mem.Read(m.Input("a", 2), aig.True)
	m.Done()
	m.AssertAlways("zero", m.IsZero(rd))
	return m.N
}

// bmc1 leaves memory reads free, so RunCtx refuses it on a design with
// memories before solving (its witnesses would not replay); on the
// memory-free explicit model it runs.
func TestRunCtxRefusesBMC1OnMemories(t *testing.T) {
	n := zeroROM()
	s := Spec{Engine: EngineBMC1, Depth: 4}
	if _, err := s.RunCtx(context.Background(), n, 0, 0, nil); !errors.Is(err, ErrBMC1Memories) {
		t.Fatalf("bmc1 on a memory design: err = %v, want ErrBMC1Memories", err)
	}
	if !strings.Contains(ErrBMC1Memories.Error(), "-explicit") {
		t.Errorf("the refusal does not point to -explicit: %v", ErrBMC1Memories)
	}
	ex, _, err := expmem.Expand(n)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunCtx(context.Background(), ex, 0, 0, nil)
	if err != nil || r.Kind != bmc.KindProof {
		t.Fatalf("bmc1 on the explicit model: %v, %v; want PROOF", r, err)
	}
	if err := (Spec{Engine: EngineBMC3}).CheckModel(n); err != nil {
		t.Errorf("bmc3 refused a memory design: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	for _, s := range []Spec{
		{Engine: "bdd"},
		{Passes: "coi,nosuchpass"},
		{V: Version + 1},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a bad spec", s)
		}
		if _, err := s.Options(); err == nil {
			t.Errorf("Options(%+v) accepted a bad spec", s)
		}
	}
}

// Permuted-but-isomorphic JSON documents — fields in any order, defaults
// spelled out or omitted, pass-spec aliases — must canonicalize to the
// same keys.
func TestCanonicalKeyPermutationInvariant(t *testing.T) {
	docs := []string{
		`{"engine":"bmc3","depth":24,"timeout":"5m","passes":"coi,sweep,ports,dedup"}`,
		`{"passes":" coi , sweep , ports , dedup ","depth":24,"engine":"BMC3"}`,
		`{"depth":24}`,                          // engine and passes defaulted
		`{"v":1,"engine":"bmc3","depth":24}`,    // version explicit
		`{"depth":24,"timeout":"30s","jobs":8}`, // performance knobs differ
		`{"depth":24,"jobs":2}`,
	}
	var want string
	for i, doc := range docs {
		var s Spec
		if err := json.Unmarshal([]byte(doc), &s); err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		key := s.CanonicalKey()
		if i == 0 {
			want = key
			continue
		}
		if key != want {
			t.Errorf("doc %d canonical key %s != doc 0 key %s\ndoc: %s", i, key, want, doc)
		}
	}
}

func TestCanonicalKeyDistinguishesSemantics(t *testing.T) {
	base := Spec{Engine: EngineBMC3, Depth: 24}
	deeper := base
	deeper.Depth = 25
	otherEngine := base
	otherEngine.Engine = EngineBMC2
	noPasses := base
	noPasses.Passes = pass.SpecNone
	keys := map[string]string{
		"base":       base.CanonicalKey(),
		"deeper":     deeper.CanonicalKey(),
		"bmc2":       otherEngine.CanonicalKey(),
		"passes-off": noPasses.CanonicalKey(),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s share a canonical key", name, prev)
		}
		seen[k] = name
	}
	// FamilyKey folds depth away but keeps engine and passes distinct.
	if base.FamilyKey() != deeper.FamilyKey() {
		t.Error("family key must not depend on depth")
	}
	if base.FamilyKey() == otherEngine.FamilyKey() || base.FamilyKey() == noPasses.FamilyKey() {
		t.Error("family key must depend on engine and passes")
	}
}

// The performance fields change how fast the verdict arrives, never which
// verdict: both cache keys must be byte-identical with each of them set.
func TestPerformanceFieldsAreCacheTransparent(t *testing.T) {
	base := Spec{Engine: EngineBMC2, Depth: 24}
	for _, tc := range []struct {
		name string
		set  func(*Spec)
	}{
		{"jobs", func(s *Spec) { s.Jobs = 2 }},
		{"timeout", func(s *Spec) { s.Timeout = Duration(90 * time.Second) }},
	} {
		perf := base
		tc.set(&perf)
		if perf.Canonical() == base.Canonical() {
			t.Fatalf("%s: setter changed nothing", tc.name)
		}
		if base.FamilyKey() != perf.FamilyKey() {
			t.Errorf("family key must not depend on -%s", tc.name)
		}
		if base.CanonicalKey() != perf.CanonicalKey() {
			t.Errorf("canonical key must not depend on -%s", tc.name)
		}
	}
}

func TestCanonicalNormalizesAliases(t *testing.T) {
	a := Spec{Passes: "off"}.Canonical()
	b := Spec{Passes: pass.SpecNone}.Canonical()
	if a != b {
		t.Errorf("off and none diverge: %+v vs %+v", a, b)
	}
	if got := (Spec{}).Canonical().Passes; got != pass.SpecDefault {
		t.Errorf("empty passes canonicalized to %q, want %q", got, pass.SpecDefault)
	}
	if got := (Spec{}).Canonical().Engine; got != EngineBMC3 {
		t.Errorf("empty engine canonicalized to %q", got)
	}
}

// The flag surface is derived from the schema: every tagged field
// registers, defaults match the seed Spec, and parsing writes back into
// the same struct the Options path reads.
func TestRegisterFlagsDerivesFromSchema(t *testing.T) {
	s := Default()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterFlags(fs, &s)
	for _, name := range FlagNames() {
		if fs.Lookup(name) == nil {
			t.Errorf("schema flag -%s not registered", name)
		}
	}
	if fs.Lookup("engine").DefValue != EngineBMC3 {
		t.Errorf("engine default %q", fs.Lookup("engine").DefValue)
	}
	err := fs.Parse([]string{
		"-engine", "bmc2", "-depth", "17", "-timeout", "90s",
		"-jobs", "2", "-passes", "coi,dedup",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		V: Version, Engine: "bmc2", Depth: 17, Timeout: Duration(90 * time.Second),
		Jobs: 2, Passes: "coi,dedup",
	}
	if s != want {
		t.Errorf("parsed spec %+v, want %+v", s, want)
	}
	opt, err := s.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opt.MaxDepth != 17 || opt.Jobs != 2 || opt.Engine != bmc.EngineBMC2 {
		t.Errorf("flags did not flow into Options: %+v", opt)
	}
}

func TestRegisterFlagsSkip(t *testing.T) {
	s := Default()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	RegisterFlags(fs, &s, "engine", "depth")
	if fs.Lookup("engine") != nil || fs.Lookup("depth") != nil {
		t.Error("skipped flags were registered")
	}
	if fs.Lookup("passes") == nil {
		t.Error("unskipped flag missing")
	}
}

func TestDurationJSON(t *testing.T) {
	b, err := json.Marshal(Spec{Timeout: Duration(90 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	if time.Duration(s.Timeout) != 90*time.Second {
		t.Errorf("timeout round trip: %v", s.Timeout)
	}
	var s2 Spec
	if err := json.Unmarshal([]byte(`{"timeout":1500000000}`), &s2); err != nil {
		t.Fatal(err)
	}
	if time.Duration(s2.Timeout) != 1500*time.Millisecond {
		t.Errorf("integer nanoseconds: %v", s2.Timeout)
	}
}
