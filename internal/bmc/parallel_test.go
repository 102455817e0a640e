package bmc

import (
	"context"
	"sync"
	"testing"
	"time"

	"emmver/internal/aig"
	"emmver/internal/designs"
	"emmver/internal/obs"
	"emmver/internal/rtl"
)

// manyCounter builds the counter mod 8 with properties "cnt != k" for
// k = 0..9: CEs at depth k for k <= 7, forward proofs for 8 and 9.
func manyCounter() (*rtl.Module, []int) {
	m := rtl.NewModule("many")
	c := m.Register("cnt", 4, 0)
	wrap := m.EqConst(c.Q, 7)
	c.SetNext(m.MuxV(wrap, m.Const(4, 0), m.Inc(c.Q)))
	m.Done(c)
	var props []int
	for k := 0; k <= 9; k++ {
		m.AssertAlways("ne", m.EqConst(c.Q, uint64(k)).Not())
		props = append(props, k)
	}
	return m, props
}

// assertSameVerdicts checks that two runs agree on every deterministic
// field. Witness input values may legitimately differ between runs (any
// satisfying assignment is a valid counter-example), but the kind, depth,
// proof side, and witness length may not.
func assertSameVerdicts(t *testing.T, seq, par *ManyResult) {
	t.Helper()
	if len(seq.Results) != len(par.Results) {
		t.Fatalf("result count: %d vs %d", len(seq.Results), len(par.Results))
	}
	for i, s := range seq.Results {
		p := par.Results[i]
		if s.Kind != p.Kind || s.Prop != p.Prop || s.Depth != p.Depth || s.ProofSide != p.ProofSide {
			t.Fatalf("prop %d: sequential %v (%s) vs parallel %v (%s)", i, s, s.ProofSide, p, p.ProofSide)
		}
		if s.Kind == KindCE {
			if p.Witness == nil || p.Witness.Length != s.Witness.Length {
				t.Fatalf("prop %d: parallel witness missing or wrong length", i)
			}
		}
	}
	if seq.MaxWitnessDepth != par.MaxWitnessDepth {
		t.Fatalf("max witness depth: %d vs %d", seq.MaxWitnessDepth, par.MaxWitnessDepth)
	}
}

func TestCheckManyParallelMatchesSequential(t *testing.T) {
	m, props := manyCounter()
	opt := Options{Engine: EngineBMC1, MaxDepth: 30, ValidateWitness: true}
	seq := CheckManyParallel(m.N, props, opt, 1)
	for _, jobs := range []int{1, 2, 4} {
		par := CheckManyParallel(m.N, props, opt, jobs)
		assertSameVerdicts(t, seq, par)
		if par.Stats.SolveCalls == 0 {
			t.Fatalf("jobs=%d: per-worker stats were not merged", jobs)
		}
	}
}

func TestCheckManyParallelDeterministicOnIndustryI(t *testing.T) {
	// The Industry I reduced design: 16 reachability properties, most with
	// witnesses, over a real memory (EMM constraints). Four property groups
	// must produce the one-group verdicts, and two four-group runs must
	// agree with each other.
	f := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 16})
	opt := Options{Engine: EngineBMC3, MaxDepth: 3*4 + 10, ValidateWitness: true}
	seq := CheckManyParallel(f.Netlist(), f.PropIndices(), opt, 1)
	first := CheckManyParallel(f.Netlist(), f.PropIndices(), opt, 4)
	assertSameVerdicts(t, seq, first)
	second := CheckManyParallel(f.Netlist(), f.PropIndices(), opt, 4)
	assertSameVerdicts(t, first, second)
}

func TestCheckManyParallelCounts(t *testing.T) {
	m, props := manyCounter()
	// Proofs on, generous bound: 8 CEs (max depth 7) + 2 forward proofs.
	res := CheckManyParallel(m.N, props, Options{Engine: EngineBMC1, MaxDepth: 30}, 3)
	counts := res.Counts()
	if counts[KindCE] != 8 || counts[KindProof] != 2 {
		t.Fatalf("counts wrong: %v", counts)
	}
	if res.MaxWitnessDepth != 7 {
		t.Fatalf("max witness depth %d want 7", res.MaxWitnessDepth)
	}
	// No proofs, tight bound: CEs for k <= 5, bound exhaustion above.
	res = CheckManyParallel(m.N, props, Options{MaxDepth: 5}, 3)
	counts = res.Counts()
	if counts[KindCE] != 6 || counts[KindNoCE] != 4 {
		t.Fatalf("bounded counts wrong: %v", counts)
	}
	if res.MaxWitnessDepth != 5 {
		t.Fatalf("bounded max witness depth %d want 5", res.MaxWitnessDepth)
	}
}

// slowDesign is large enough that no depth completes within a nanosecond
// budget.
func slowDesign() *rtl.Module {
	m := rtl.NewModule("slow")
	mem := m.Memory("mem", 6, 16, aig.MemZero)
	mem.Write(m.Input("wa", 6), m.Input("wd", 16), m.InputBit("we"))
	rd := mem.Read(m.Input("ra", 6), m.InputBit("re"))
	acc := m.Register("acc", 16, 0)
	acc.SetNext(m.Add(acc.Q, rd))
	m.Done(acc)
	m.AssertAlways("p", m.EqConst(acc.Q, 0xBEEF).Not())
	return m
}

func TestTimeoutBeforeDepthZeroClampsDepth(t *testing.T) {
	// A timeout that fires before depth 0 completes must not report the
	// nonsensical depth -1.
	m := slowDesign()
	opt := Options{Engine: EngineBMC2, MaxDepth: 60, Timeout: time.Nanosecond}
	r := Check(m.N, 0, opt)
	if r.Kind != KindTimeout {
		t.Fatalf("expected timeout, got %v", r)
	}
	if r.Depth < 0 {
		t.Fatalf("Check reported negative depth %d", r.Depth)
	}
	mr := CheckManyParallel(m.N, []int{0}, opt, 1)
	for _, rr := range mr.Results {
		if rr.Kind != KindTimeout || rr.Depth < 0 {
			t.Fatalf("CheckManyParallel/1 reported %v depth=%d", rr, rr.Depth)
		}
	}
	pr := CheckManyParallel(m.N, []int{0}, opt, 2)
	for _, rr := range pr.Results {
		if rr.Kind != KindTimeout || rr.Depth < 0 {
			t.Fatalf("CheckManyParallel reported %v depth=%d", rr, rr.Depth)
		}
	}
}

func TestPortfolioMatchesSequential(t *testing.T) {
	cases := []struct {
		name  string
		build func() *rtl.Module
		prop  int
		opt   Options
	}{
		{"backward-proof", func() *rtl.Module { return mod5Counter(2) }, 0, Options{Engine: EngineBMC1, MaxDepth: 20}},
		{"ce", func() *rtl.Module { return mod5Counter(3) }, 1, Options{Engine: EngineBMC1, MaxDepth: 20}},
		{"emm-proof", memEcho, 0, Options{Engine: EngineBMC3, MaxDepth: 20}},
		{"forward-proof", func() *rtl.Module {
			m := rtl.NewModule("plus2")
			c := m.Register("cnt", 3, 0)
			c.SetNext(m.Add(c.Q, m.Const(3, 2)))
			m.Done(c)
			m.AssertAlways("ne5", m.EqConst(c.Q, 5).Not())
			return m
		}, 0, Options{Engine: EngineBMC1, MaxDepth: 20}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := Check(tc.build().N, tc.prop, tc.opt)
			popt := tc.opt
			popt.portfolio = true
			popt.ValidateWitness = true
			por := Check(tc.build().N, tc.prop, popt)
			// ProofSide may legitimately differ when both termination
			// checks prove at the same depth; Kind and Depth may not.
			if por.Kind != seq.Kind || por.Depth != seq.Depth {
				t.Fatalf("sequential %v vs portfolio %v", seq, por)
			}
			if seq.Kind == KindCE && por.Witness == nil {
				t.Fatalf("portfolio CE lost its witness")
			}
		})
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{SolveCalls: 2, Clauses: 10, Vars: 5, Conflicts: 3, PeakHeapMB: 7}
	b := Stats{SolveCalls: 1, Clauses: 4, Vars: 2, Conflicts: 1, PeakHeapMB: 9}
	a.Add(b)
	if a.SolveCalls != 3 || a.Clauses != 14 || a.Vars != 7 || a.Conflicts != 4 {
		t.Fatalf("counters wrong after Add: %+v", a)
	}
	if a.PeakHeapMB != 9 {
		t.Fatalf("peak heap should take the max, got %v", a.PeakHeapMB)
	}
}

// entryRun runs props through one entry point, returning one result per
// property and the solver calls the run spent.
type entryRun func(ctx context.Context, n *aig.Netlist, props []int, opt Options) ([]*Result, int)

// entryPoints lists every public entry point of the package: Check,
// CheckManyParallel with one property group and with two, and
// CheckManyParallel given one property at a time (two workers race its
// termination lanes).
func entryPoints() []struct {
	name string
	run  entryRun
} {
	check := func(ctx context.Context, n *aig.Netlist, props []int, opt Options) ([]*Result, int) {
		var out []*Result
		calls := 0
		for _, p := range props {
			r := CheckCtx(ctx, n, p, opt)
			out = append(out, r)
			calls += r.Stats.SolveCalls
		}
		return out, calls
	}
	many := func(jobs int) entryRun {
		return func(ctx context.Context, n *aig.Netlist, props []int, opt Options) ([]*Result, int) {
			mr := CheckManyParallelCtx(ctx, n, props, opt, jobs)
			return mr.Results, mr.Stats.SolveCalls
		}
	}
	lanes := func(ctx context.Context, n *aig.Netlist, props []int, opt Options) ([]*Result, int) {
		var out []*Result
		calls := 0
		for _, p := range props {
			got, c := many(2)(ctx, n, []int{p}, opt)
			out = append(out, got...)
			calls += c
		}
		return out, calls
	}
	return []struct {
		name string
		run  entryRun
	}{
		{"Check", check},
		{"CheckManyParallel/1", many(1)},
		{"CheckManyParallel/2", many(2)},
		{"CheckManyParallel/2/one-prop", lanes},
	}
}

// TestEntryPointsAgree runs every entry point under BMC-3 on quicksort N=3
// (both properties) and on the mod-8 counter (one counter-example, one
// proof): on a live context the per-property verdicts and depths must
// agree, and on a context cancelled before the run every property must
// time out at depth 0 without a single solver call.
func TestEntryPointsAgree(t *testing.T) {
	qs := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3})
	counter, _ := manyCounter()
	// The RD=0-constrained lookup asserts environment constraints, which
	// every property of a group shares with its siblings.
	l := designs.NewLookup(designs.LookupConfig{AW: 3, DW: 4, NumProps: 3, Latency: 2})
	cases := []struct {
		name  string
		n     *aig.Netlist
		props []int
		want  []Kind
	}{
		{"quicksort", qs.Netlist(), []int{qs.P1Index, qs.P2Index}, []Kind{KindNoCE, KindNoCE}},
		{"counter", counter.N, []int{3, 8}, []Kind{KindCE, KindProof}},
		{"lookup-rd0", l.WithRDZeroConstraint(), l.ReachIndices, []Kind{KindProof, KindProof, KindProof}},
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range cases {
		opt := Options{Engine: EngineBMC3, MaxDepth: 14, ValidateWitness: true}
		var base []*Result
		for _, ep := range entryPoints() {
			got, _ := ep.run(context.Background(), tc.n, tc.props, opt)
			if base == nil {
				base = got
				for pi, k := range tc.want {
					if got[pi].Kind != k {
						t.Fatalf("%s prop %d: Check says %v, want %v", tc.name, pi, got[pi].Kind, k)
					}
				}
			}
			for pi, r := range got {
				if want := base[pi]; r.Kind != want.Kind || r.Depth != want.Depth {
					t.Errorf("%s/%s prop %d: %v depth %d, Check says %v depth %d",
						tc.name, ep.name, pi, r.Kind, r.Depth, want.Kind, want.Depth)
				}
			}

			got, calls := ep.run(cancelled, tc.n, tc.props, opt)
			for pi, r := range got {
				if r.Kind != KindTimeout || r.Depth != 0 {
					t.Errorf("%s/%s prop %d on a cancelled context: %v depth %d, want TIMEOUT depth 0",
						tc.name, ep.name, pi, r.Kind, r.Depth)
				}
			}
			if calls != 0 {
				t.Errorf("%s/%s on a cancelled context made %d solver calls", tc.name, ep.name, calls)
			}
		}
	}
}

// TestDepthStatsAtAnyJobs: every run records DepthStats, at any worker
// count.
// The per-depth table sums the property groups' engines by depth, so its
// Solves column sums to the run's solver calls, and the verdicts are the
// same at one and at two groups.
func TestDepthStatsAtAnyJobs(t *testing.T) {
	f := designs.NewImageFilter(designs.ImageFilterConfig{LineWidth: 4, AW: 4, DW: 4, NumProps: 8})
	opt := Options{Engine: EngineBMC3, MaxDepth: 3*4 + 10}
	var first *ManyResult
	for _, jobs := range []int{1, 2} {
		mr := CheckManyParallel(f.Netlist(), f.PropIndices(), opt, jobs)
		if first == nil {
			first = mr
		}
		assertSameVerdicts(t, first, mr)
		if len(mr.DepthStats) == 0 {
			t.Fatalf("jobs=%d: no per-depth table", jobs)
		}
		solves := 0
		for d, ds := range mr.DepthStats {
			if ds.Depth != d {
				t.Fatalf("jobs=%d: row %d holds depth %d", jobs, d, ds.Depth)
			}
			solves += ds.Solves
		}
		if solves != mr.Stats.SolveCalls {
			t.Errorf("jobs=%d: Solves column sums to %d, run made %d solver calls",
				jobs, solves, mr.Stats.SolveCalls)
		}
	}
}

// TestManyKInductionMatchesCheck: one property group under bmc3 runs its
// k-induction (one forward check, then each open property's induction step
// and counter-example check) over all of its properties and reaches the
// verdict Check reaches on each property alone — on lookup too, whose
// shared compile prunes the dead write port, so the group's induction
// steps retain the memory's zero contents as a lone property's do.
func TestManyKInductionMatchesCheck(t *testing.T) {
	qs := designs.NewQuickSort(designs.QuickSortConfig{N: 3, ArrayAW: 3, DataW: 4, StackAW: 3})
	l := designs.NewLookup(designs.LookupConfig{AW: 3, DW: 4, NumProps: 3, Latency: 2})
	counter, cprops := manyCounter()
	for _, tc := range []struct {
		name  string
		n     *aig.Netlist
		props []int
	}{
		{"quicksort", qs.Netlist(), []int{qs.P1Index, qs.P2Index}},
		{"lookup", l.Netlist(), append([]int{l.InvariantIndex}, l.ReachIndices...)},
		{"counter", counter.N, cprops},
	} {
		opt := Options{Engine: EngineBMC3, MaxDepth: 14}
		opt.ValidateWitness = true
		mr := CheckManyParallel(tc.n, tc.props, opt, 1)
		for pi, p := range tc.props {
			want, got := Check(tc.n, p, opt), mr.Results[pi]
			if got.Kind != want.Kind || got.Depth != want.Depth || got.ProofSide != want.ProofSide {
				t.Errorf("%s prop %d: group %v (%s), Check %v (%s)",
					tc.name, p, got, got.ProofSide, want, want.ProofSide)
			}
		}
	}
}

// cutSink records trace events and the position at which the run was
// cancelled.
type cutSink struct {
	mu     sync.Mutex
	events []obs.Event
	cut    int
}

func (s *cutSink) Emit(ev obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// writerFunc adapts a function to io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

// TestCheckManyEndsAtDeadline cancels a one-group CheckManyParallel from
// its own log writer at the first counter-example, partway through depth
// 0. The depth that timed out must end the run: no later depth may start
// after the cancellation, and every property still open times out at that
// depth.
func TestCheckManyEndsAtDeadline(t *testing.T) {
	m, props := manyCounter()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cutSink{cut: -1}
	var once sync.Once
	opt := Options{MaxDepth: 12, Obs: obs.New(nil, sink), Log: writerFunc(func(p []byte) (int, error) {
		once.Do(func() {
			sink.mu.Lock()
			sink.cut = len(sink.events)
			sink.mu.Unlock()
			cancel()
		})
		return len(p), nil
	})}
	mr := CheckManyParallelCtx(ctx, m.N, props, opt, 1)

	if sink.cut < 0 {
		t.Fatal("the run never logged, so it was never cancelled")
	}
	for i, ev := range sink.events[sink.cut:] {
		if ev.Name == "bmc.depth" && ev.Ev == "start" {
			t.Fatalf("depth %v started %d events after the cancellation", ev.Fields, i)
		}
	}
	if r := mr.Results[0]; r.Kind != KindCE || r.Depth != 0 {
		t.Fatalf("prop 0: %v depth %d, want CE depth 0", r.Kind, r.Depth)
	}
	for pi, r := range mr.Results[1:] {
		if r.Kind != KindTimeout || r.Depth != 0 {
			t.Errorf("prop %d: %v depth %d, want TIMEOUT depth 0", pi+1, r.Kind, r.Depth)
		}
	}
}
