package bmc

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/designs"
	"emmver/internal/rtl"
)

// The refactor-equivalence pin: every existing engine must produce
// byte-identical verdicts, depths, witnesses, and deterministic Stats
// counters across the case-study designs, compared against golden fixtures
// generated before the model/session/strategy extraction (the
// multi-property records: before the entry points shared one per-depth
// driver; the bmc2 and many-bmc2 records: after the engine made bmc2 lazy,
// when the bmc2 records took the former bmc2-lazy records' values).
// Regenerate with
//
//	go test ./internal/bmc -run TestRefactorEquivalence -update-golden
//
// only when a change is *meant* to alter engine behavior.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/refactor_golden.json from the current engines")

// goldenRecord is one (design, engine) outcome. Wall-clock and heap fields
// are excluded; everything recorded is deterministic for a sequential
// single-threaded run. The racing runs — portfolio lanes and two property
// groups — pin only their verdicts (Full=false).
type goldenRecord struct {
	Design string `json:"design"`
	Engine string `json:"engine"`
	Full   bool   `json:"full"`

	Kind      string `json:"kind"`
	Depth     int    `json:"depth"`
	ProofSide string `json:"proof_side,omitempty"`
	Witness   string `json:"witness,omitempty"`

	SolveCalls int   `json:"solve_calls,omitempty"`
	Conflicts  int64 `json:"conflicts,omitempty"`
	Clauses    int   `json:"clauses,omitempty"`
	Vars       int   `json:"vars,omitempty"`
	Restarts   int64 `json:"restarts,omitempty"`
	EMMClauses int   `json:"emm_clauses,omitempty"`
}

// witnessDigest renders a Witness deterministically (maps sorted).
func witnessDigest(w *Witness) string {
	if w == nil {
		return ""
	}
	out := fmt.Sprintf("len=%d", w.Length)
	for f, in := range w.Inputs {
		ids := make([]int, 0, len(in))
		for id := range in {
			ids = append(ids, int(id))
		}
		sort.Ints(ids)
		out += fmt.Sprintf("|f%d:", f)
		for _, id := range ids {
			v := 0
			if in[aig.NodeID(id)] {
				v = 1
			}
			out += fmt.Sprintf("%d=%d,", id, v)
		}
	}
	ids := make([]int, 0, len(w.InitLatches))
	for id := range w.InitLatches {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	out += "|latches:"
	for _, id := range ids {
		v := 0
		if w.InitLatches[aig.NodeID(id)] {
			v = 1
		}
		out += fmt.Sprintf("%d=%d,", id, v)
	}
	for mi, words := range w.MemInit {
		addrs := make([]int, 0, len(words))
		for a := range words {
			addrs = append(addrs, a)
		}
		sort.Ints(addrs)
		out += fmt.Sprintf("|mem%d:", mi)
		for _, a := range addrs {
			out += fmt.Sprintf("%d=%d,", a, words[a])
		}
	}
	return out
}

// growthEquivNetlist is the §S2 shared-address shape (exp.GrowthSolveNetlist
// at reduced widths), rebuilt locally: the exp package imports bmc, so the
// test cannot import it back.
func growthEquivNetlist() *aig.Netlist {
	m := rtl.NewModule("growth-equiv")
	mem := m.Memory("mem", 6, 8, aig.MemArbitrary)
	addr := m.Input("a", 6)
	mem.Write(addr, m.Input("wd", 8), m.InputBit("we"))
	re0 := m.InputBit("re0")
	re1 := m.InputBit("re1")
	rd0 := mem.Read(addr, re0)
	rd1 := mem.Read(addr, re1)
	both := m.N.And(re0, re1)
	ok := m.N.And(both, m.Eq(rd0, rd1).Not()).Not()
	m.AssertAlways("shared-read-agree", ok)
	m.Done()
	return m.N
}

func equivDesigns() []struct {
	name  string
	n     *aig.Netlist
	prop  int
	depth int
} {
	q := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 4, DataW: 8, StackAW: 4})
	f := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 16})
	l := designs.NewLookup(designs.LookupConfig{AW: 4, DW: 6, NumProps: 8, Latency: 6})
	return []struct {
		name  string
		n     *aig.Netlist
		prop  int
		depth int
	}{
		{"quicksort-p1", q.Netlist(), q.P1Index, 10},
		{"filter-0", f.Netlist(), 0, 12},
		{"lookup-inv", l.Netlist(), l.InvariantIndex, 8},
		{"growth", growthEquivNetlist(), 0, 10},
	}
}

// runEquivEngine runs one record's engine: the engine name is the record
// name, except the lane race (bmc3 with the portfolio switch) and the PBA
// flow over bmc3.
func runEquivEngine(engine string, n *aig.Netlist, prop, depth int) goldenRecord {
	opt := Options{Engine: engine, MaxDepth: depth}
	switch engine {
	case "portfolio":
		// Two racing lanes: verdict and depth are deterministic, the rest
		// (which lane answered, solver work split) is not.
		r := Check(n, prop, Options{Engine: EngineBMC3, MaxDepth: depth, portfolio: true})
		return goldenRecord{Kind: r.Kind.String(), Depth: r.Depth}
	case "pba":
		res := ProveWithPBA(n, prop, Options{Engine: EngineBMC3, MaxDepth: depth, StabilityDepth: 10})
		r := res.Phase1
		if res.Proof != nil {
			r = res.Proof
		}
		rec := fullRecord(r, r.Stats)
		rec.Kind = res.Kind().String()
		return rec
	}
	r := Check(n, prop, opt)
	return fullRecord(r, r.Stats)
}

// fullRecord pins every deterministic field of r, with the solver counters
// taken from st (the run's statistics, which multi-property runs report
// once for all properties).
func fullRecord(r *Result, st Stats) goldenRecord {
	return goldenRecord{
		Full: true, Kind: r.Kind.String(), Depth: r.Depth,
		ProofSide: r.ProofSide, Witness: witnessDigest(r.Witness),
		SolveCalls: st.SolveCalls, Conflicts: st.Conflicts,
		Clauses: st.Clauses, Vars: st.Vars,
		Restarts: st.Restarts, EMMClauses: st.EMM.Clauses(),
	}
}

// manyDesigns are the multi-property runs of the pin: both quicksort
// properties, the lookup invariant plus its first reachability properties,
// the first filter properties, and the mod-8 counter whose properties fail
// at depths 0..7 and prove forward above.
func manyDesigns() []struct {
	name  string
	n     *aig.Netlist
	props []int
	depth int
} {
	q := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 4, DataW: 8, StackAW: 4})
	l := designs.NewLookup(designs.LookupConfig{AW: 4, DW: 6, NumProps: 8, Latency: 6})
	f := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 16})
	c, cprops := manyCounter()
	return []struct {
		name  string
		n     *aig.Netlist
		props []int
		depth int
	}{
		{"quicksort-p1p2", q.Netlist(), []int{q.P1Index, q.P2Index}, 10},
		{"lookup-inv-reach", l.Netlist(), append([]int{l.InvariantIndex}, l.ReachIndices[:3]...), 8},
		{"filter-0-5", f.Netlist(), f.PropIndices()[:6], 12},
		{"counter", c.N, cprops, 12},
	}
}

// runEquivMany runs the multi-property entry point and returns a record per
// property. With one worker every property shares one group, so the run is
// deterministic and every field is pinned (the solver counters are the
// run's); with two workers only each verdict is pinned.
func runEquivMany(t *testing.T, engine string, n *aig.Netlist, props []int, depth int) []goldenRecord {
	t.Helper()
	var mr *ManyResult
	full := true
	opt := Options{Engine: EngineBMC3, MaxDepth: depth}
	switch engine {
	case "many-bmc3":
		mr = CheckManyParallel(n, props, opt, 1)
	case "many-bmc2":
		opt.Engine = EngineBMC2
		mr = CheckManyParallel(n, props, opt, 1)
	case "pool2-bmc3":
		mr = CheckManyParallel(n, props, opt, 2)
		full = false
	default:
		t.Fatalf("unknown engine %s", engine)
	}
	var recs []goldenRecord
	for pi, r := range mr.Results {
		if r.Kind == KindCE {
			if err := r.Witness.Replay(n, props[pi]); err != nil {
				t.Errorf("%s prop %d: witness does not replay: %v", engine, props[pi], err)
			}
		}
		rec := goldenRecord{Kind: r.Kind.String(), Depth: r.Depth, ProofSide: r.ProofSide}
		if full {
			rec = fullRecord(r, mr.Stats)
		}
		recs = append(recs, rec)
	}
	return recs
}

func TestRefactorEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full engine sweep")
	}
	goldenPath := filepath.Join("testdata", "refactor_golden.json")
	var got []goldenRecord
	for _, d := range equivDesigns() {
		for _, engine := range []string{"bmc1", "bmc2", "bmc3", "portfolio", "pba"} {
			rec := runEquivEngine(engine, d.n, d.prop, d.depth)
			rec.Design, rec.Engine = d.name, engine
			got = append(got, rec)
		}
	}
	for _, d := range manyDesigns() {
		for _, engine := range []string{"many-bmc3", "many-bmc2", "pool2-bmc3"} {
			for pi, rec := range runEquivMany(t, engine, d.n, d.props, d.depth) {
				rec.Design, rec.Engine = fmt.Sprintf("%s/%d", d.name, pi), engine
				got = append(got, rec)
			}
		}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d records to %s", len(got), goldenPath)
		return
	}
	b, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("golden fixtures missing (run with -update-golden): %v", err)
	}
	var want []goldenRecord
	if err := json.Unmarshal(b, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d records, run produced %d", len(want), len(got))
	}
	// Any drift fails; the message says whether a verdict moved or only
	// the solver's work, and the tally says which fields moved how often.
	rt := reflect.TypeOf(goldenRecord{})
	tally := make([]int, rt.NumField())
	drifted := 0
	for i := range got {
		diff := driftFields(want[i], got[i])
		if len(diff) == 0 {
			continue
		}
		drifted++
		var names []string
		verdict := false
		for _, f := range diff {
			tally[f]++
			name := rt.Field(f).Name
			names = append(names, name)
			verdict = verdict || slices.Contains(verdictFields, name)
		}
		what := "count drift"
		if verdict {
			what = "verdict drift"
		}
		t.Errorf("%s/%s: %s in %s:\n  want %+v\n  got  %+v",
			want[i].Design, want[i].Engine, what, strings.Join(names, ", "), want[i], got[i])
	}
	if drifted > 0 {
		var parts []string
		for f, n := range tally {
			if n > 0 {
				parts = append(parts, fmt.Sprintf("%s %d", rt.Field(f).Name, n))
			}
		}
		t.Errorf("%d of %d records drifted; fields: %s", drifted, len(got), strings.Join(parts, ", "))
	}
}

// verdictFields are the goldenRecord fields that carry a verdict rather
// than a measure of solver work.
var verdictFields = []string{"Kind", "Depth", "ProofSide", "Witness"}

// driftFields returns the indices of the goldenRecord fields on which got
// differs from want.
func driftFields(want, got goldenRecord) []int {
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	var out []int
	for f := 0; f < wv.NumField(); f++ {
		if wv.Field(f).Interface() != gv.Field(f).Interface() {
			out = append(out, f)
		}
	}
	return out
}
