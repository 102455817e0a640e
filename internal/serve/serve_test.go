package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"emmver/internal/aig"
	"emmver/internal/bmc"
	"emmver/internal/btor2"
	"emmver/internal/exp"
	"emmver/internal/pass"
	"emmver/internal/rtl"
	"emmver/internal/spec"
)

// counterSrc is falsifiable at depth 9 (CE) — the witness-bearing design.
const counterSrc = `
module counter(input clk, input en, input rst);
  reg [3:0] cnt;
  always @(posedge clk) begin
    if (rst) cnt <= 4'd0;
    else if (en) cnt <= cnt + 4'd1;
  end
  assert(cnt != 4'd9, "never9");
endmodule`

// counterRenamedSrc is the same circuit with every identifier renamed:
// structurally isomorphic, byte-wise different.
const counterRenamedSrc = `
module z(input clk, input go, input clr);
  reg [3:0] k;
  always @(posedge clk) begin
    if (clr) k <= 4'd0;
    else if (go) k <= k + 4'd1;
  end
  assert(k != 4'd9, "p");
endmodule`

// growthBTOR2 serializes the §S2 shared-address design (NO_CE-valid
// read-consistency property) at small widths as BTOR2 text.
func growthBTOR2(t *testing.T, decoys int) string {
	t.Helper()
	cfg := exp.DefaultGrowthSolve()
	cfg.AW, cfg.DW = 3, 4
	cfg.Decoys = decoys
	var buf bytes.Buffer
	if err := btor2.Write(&buf, exp.GrowthSolveNetlist(cfg)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func testServer(t *testing.T) (*Server, *Client) {
	t.Helper()
	s := New(Config{Workers: 2})
	t.Cleanup(s.Shutdown)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, NewClient(ts.Listener.Addr().String())
}

func submitWait(t *testing.T, c *Client, req Request) *JobStatus {
	t.Helper()
	st, err := c.Submit(req, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("job %s state %s (error %q)", st.ID, st.State, st.Error)
	}
	return st
}

func growthReq(t *testing.T, depth, decoys int) Request {
	return Request{
		Format: "btor2",
		Source: growthBTOR2(t, decoys),
		Prop:   0,
		Spec:   spec.Spec{Engine: spec.EngineBMC2, Depth: depth},
	}
}

// A byte-identical resubmission must be answered from the cache with the
// same verdict and no solver work.
func TestDuplicateSubmissionCacheHit(t *testing.T) {
	s, c := testServer(t)
	first := submitWait(t, c, growthReq(t, 8, 0))
	if first.Cached || first.Verdict == nil || first.Verdict.Kind != "NO_CE" {
		t.Fatalf("first run: cached=%v verdict=%+v", first.Cached, first.Verdict)
	}
	second := submitWait(t, c, growthReq(t, 8, 0))
	if !second.Cached {
		t.Fatalf("duplicate was re-solved: %+v", second)
	}
	if second.Verdict.Kind != first.Verdict.Kind || second.Verdict.Depth != first.Verdict.Depth {
		t.Fatalf("cached verdict drifted: first %+v, second %+v", first.Verdict, second.Verdict)
	}
	if st := s.CacheStats(); st.Hits < 1 {
		t.Fatalf("no cache hit recorded: %+v", st)
	}
}

// A deeper resubmission of a NO_CE family must warm-start from the cached
// frontier instead of re-checking the shallow prefix.
func TestDeeperResubmissionWarmStarts(t *testing.T) {
	s, c := testServer(t)
	shallow := submitWait(t, c, growthReq(t, 6, 0))
	if shallow.Verdict.Kind != "NO_CE" || shallow.Verdict.Depth != 6 {
		t.Fatalf("shallow: %+v", shallow.Verdict)
	}
	deep := submitWait(t, c, growthReq(t, 12, 0))
	if deep.Cached {
		t.Fatalf("deeper request must solve, not hit: %+v", deep)
	}
	if deep.WarmStart != 7 {
		t.Fatalf("warm start %d, want 7 (frontier 6 + 1)", deep.WarmStart)
	}
	if deep.Verdict.Kind != "NO_CE" || deep.Verdict.Depth != 12 {
		t.Fatalf("deep verdict: %+v", deep.Verdict)
	}
	if st := s.CacheStats(); st.WarmHits < 1 {
		t.Fatalf("no warm hit recorded: %+v", st)
	}
	// And a shallower request is now answered outright at its own depth.
	mid := submitWait(t, c, growthReq(t, 9, 0))
	if !mid.Cached || mid.Verdict.Kind != "NO_CE" || mid.Verdict.Depth != 9 {
		t.Fatalf("mid-depth after frontier 12: %+v", mid)
	}
}

// A near-duplicate — the same problem salted with structure the compile
// pipeline removes — lands on the same family and hits.
func TestNearDuplicateHitsAfterPasses(t *testing.T) {
	_, c := testServer(t)
	clean := submitWait(t, c, growthReq(t, 8, 0))
	salted := submitWait(t, c, growthReq(t, 8, 2))
	if clean.Family != salted.Family {
		t.Fatalf("families diverge:\n clean:  %s\n salted: %s", clean.Family, salted.Family)
	}
	if !salted.Cached || salted.Verdict.Kind != clean.Verdict.Kind {
		t.Fatalf("near-duplicate missed: %+v", salted)
	}
}

// Verdicts transfer across isomorphic-but-renamed submissions; witnesses
// (which live in source node coordinates) do not.
func TestRenamedDesignSharesVerdictNotWitness(t *testing.T) {
	_, c := testServer(t)
	req := Request{Format: "verilog", Source: counterSrc, Prop: 0,
		Spec: spec.Spec{Engine: spec.EngineBMC3, Depth: 15}}
	first := submitWait(t, c, req)
	if first.Verdict.Kind != "CE" || first.Verdict.Depth != 9 || first.Verdict.Witness == nil {
		t.Fatalf("counter CE: %+v", first.Verdict)
	}
	// Same bytes → witness replays, so it is served.
	again := submitWait(t, c, req)
	if !again.Cached || again.Verdict.Witness == nil {
		t.Fatalf("identical resubmission lost its witness: %+v", again)
	}
	// Renamed bytes → same family, verdict served, witness withheld.
	renamed := submitWait(t, c, Request{Format: "verilog", Source: counterRenamedSrc, Prop: 0,
		Spec: spec.Spec{Engine: spec.EngineBMC3, Depth: 15}})
	if renamed.Family != first.Family {
		t.Fatalf("renamed design missed the family:\n %s\n %s", first.Family, renamed.Family)
	}
	if !renamed.Cached || renamed.Verdict.Kind != "CE" || renamed.Verdict.Depth != 9 {
		t.Fatalf("renamed verdict: cached=%v %+v", renamed.Cached, renamed.Verdict)
	}
	if renamed.Verdict.Witness != nil {
		t.Fatal("witness crossed a source-key boundary")
	}
}

// A cached CE at depth d answers any request with depth >= d; a shallower
// request must not be served the deep counter-example.
func TestCEDepthSemantics(t *testing.T) {
	_, c := testServer(t)
	req := Request{Format: "verilog", Source: counterSrc, Prop: 0,
		Spec: spec.Spec{Engine: spec.EngineBMC3, Depth: 15}}
	if st := submitWait(t, c, req); st.Verdict.Kind != "CE" {
		t.Fatalf("seed: %+v", st.Verdict)
	}
	deeper := req
	deeper.Spec.Depth = 40
	if st := submitWait(t, c, deeper); !st.Cached || st.Verdict.Kind != "CE" || st.Verdict.Depth != 9 {
		t.Fatalf("deeper request after CE: %+v", st)
	}
	shallow := req
	shallow.Spec.Depth = 5
	st := submitWait(t, c, shallow)
	if st.Cached || st.Verdict.Kind != "NO_CE" {
		t.Fatalf("depth-5 request: cached=%v %+v (CE at 9 must not answer depth 5)", st.Cached, st.Verdict)
	}
}

// wedgeBTOR2 serializes the wedge: a zero-init ROM read at an address
// taken from the counter's top bits, with the property that enabled reads
// return zero. The forward check cannot bound it (the counter pushes the
// recurrence diameter to 2^12); BMC-3's induction step proves it at depth
// 0, because a memory with no write port keeps its declared contents.
func wedgeBTOR2(t *testing.T) string {
	t.Helper()
	m := rtl.NewModule("wedge")
	mem := m.Memory("rom", 4, 4, 0) // aig.MemZero
	cnt := m.Register("cnt", 12, 0)
	cnt.SetNext(m.Inc(cnt.Q))
	re := m.InputBit("re")
	rd := mem.Read(cnt.Q[8:], re)
	bad := m.N.And(re, m.NonZero(rd))
	m.AssertAlways("rom-reads-zero", bad.Not())
	m.Done(cnt)
	var buf bytes.Buffer
	if err := btor2.Write(&buf, m.N); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// A PROOF is engine-independent: once bmc3 proves the wedge unboundedly,
// the cached proof answers later submissions from any proving engine at
// any depth — even bmc1, which could never have produced it on a design
// with memories — while the per-engine families stay separate.
func TestProofServedAcrossEngines(t *testing.T) {
	s, c := testServer(t)
	src := wedgeBTOR2(t)
	req := func(engine string, depth int) Request {
		return Request{Format: "btor2", Source: src, Prop: 0,
			Spec: spec.Spec{Engine: engine, Depth: depth}}
	}
	proof := submitWait(t, c, req(spec.EngineBMC3, 10))
	if proof.Cached || proof.Verdict.Kind != "PROOF" || proof.Verdict.Depth != 0 {
		t.Fatalf("bmc3 on the wedge: cached=%v %+v, want fresh PROOF depth=0", proof.Cached, proof.Verdict)
	}
	for _, engine := range []string{spec.EngineBMC3, spec.EngineBMC1} {
		got := submitWait(t, c, req(engine, 25))
		if !got.Cached || got.Verdict.Kind != "PROOF" {
			t.Fatalf("%s after the bmc3 proof: cached=%v %+v, want cached PROOF", engine, got.Cached, got.Verdict)
		}
		if engine != spec.EngineBMC3 && got.Family == proof.Family {
			t.Fatalf("%s shares bmc3's family — proof transfer must cross families, not blur them", engine)
		}
	}
	if st := s.CacheStats(); st.Hits < 2 {
		t.Fatalf("proof serves not accounted as hits: %+v", st)
	}
}

// A cached NO_CE frontier warm-starts a deeper bmc3 request: its
// termination checks are monotone in k and its counter-example check (the
// base case of its k-induction) resumes at the frontier.
func TestKIndDeepeningWarmStarts(t *testing.T) {
	_, c := testServer(t)
	// The counter design's CE sits at depth 9 and neither termination check
	// closes (an arbitrary state can hold cnt=8), so below depth 9 bmc3
	// honestly reports a NO_CE frontier.
	req := func(depth int) Request {
		return Request{Format: "verilog", Source: counterSrc, Prop: 0,
			Spec: spec.Spec{Engine: spec.EngineBMC3, Depth: depth}}
	}
	shallow := submitWait(t, c, req(5))
	if shallow.Verdict.Kind != "NO_CE" || shallow.Verdict.Depth != 5 {
		t.Fatalf("shallow bmc3 run: %+v", shallow.Verdict)
	}
	deep := submitWait(t, c, req(8))
	if deep.Cached || deep.WarmStart != 6 {
		t.Fatalf("deep bmc3 run: cached=%v warm=%d, want fresh run warm-started at 6", deep.Cached, deep.WarmStart)
	}
	if deep.Verdict.Kind != "NO_CE" || deep.Verdict.Depth != 8 {
		t.Fatalf("deep bmc3 verdict: %+v", deep.Verdict)
	}
	// Deepening past the frontier into the violation: the warm-started
	// counter-example check finds the depth-9 counter-example.
	ce := submitWait(t, c, req(12))
	if ce.Cached || ce.WarmStart != 9 || ce.Verdict.Kind != "CE" || ce.Verdict.Depth != 9 {
		t.Fatalf("bmc3 past the frontier: cached=%v warm=%d %+v, want CE depth=9 from warm start 9",
			ce.Cached, ce.WarmStart, ce.Verdict)
	}
}

// bmc1 leaves memory reads free, so a served bmc1 job on a design with
// memories fails before solving with the refusal that points to -explicit,
// instead of panicking in the witness replay of a spurious counter-example.
func TestBMC1OnMemoriesFailsCleanly(t *testing.T) {
	s, c := testServer(t)
	st, err := c.Submit(Request{Format: "btor2", Source: wedgeBTOR2(t), Prop: 0,
		Spec: spec.Spec{Engine: spec.EngineBMC1, Depth: 5}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "failed" || !strings.Contains(st.Error, "(emmv -explicit)") {
		t.Fatalf("bmc1 on the wedge: state %s, error %q; want failed pointing to -explicit",
			st.State, st.Error)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := string(stats["serve.panics"]); got != "0" {
		t.Fatalf("serve.panics = %s, want 0", got)
	}
	if st := s.CacheStats(); st.Stores != 0 {
		t.Errorf("a refused job left a cache entry: %+v", st)
	}
}

// CE and NO_CE verdicts must NOT cross engines: only a PROOF states an
// engine-independent truth. A bmc2 NO_CE frontier stays invisible to bmc3.
func TestOnlyProofsCrossEngines(t *testing.T) {
	_, c := testServer(t)
	if st := submitWait(t, c, growthReq(t, 8, 0)); st.Verdict.Kind != "NO_CE" {
		t.Fatalf("bmc2 seed: %+v", st.Verdict)
	}
	other := Request{Format: "btor2", Source: growthBTOR2(t, 0), Prop: 0,
		Spec: spec.Spec{Engine: spec.EngineBMC3, Depth: 8}}
	if st := submitWait(t, c, other); st.Cached {
		t.Fatalf("bmc2 NO_CE leaked into a bmc3 request: %+v", st)
	}
}

// The events endpoint streams the job's JSONL progress.
func TestEventsStream(t *testing.T) {
	_, c := testServer(t)
	st := submitWait(t, c, growthReq(t, 6, 0))
	var buf bytes.Buffer
	if err := c.Events(st.ID, &buf); err != nil {
		t.Fatal(err)
	}
	// The submit-time index lookup, parse and compile come first, then the
	// worker's job.
	events, last := buf.String(), -1
	for _, span := range []string{`"serve.lookup"`, `"frontend.parse"`, `"pass.compile"`, `"serve.job"`} {
		at := strings.Index(events, span)
		if at <= last {
			t.Fatalf("event stream missing %s after the spans before it:\n%s", span, events)
		}
		last = at
	}
}

// Structural canonicalization of the netlist half of the cache key:
// renamings hash equal, semantic differences hash apart.
func TestNetlistKeyCanonicalization(t *testing.T) {
	build := func(memName, cntName string, aw int) *rtl.Module {
		m := rtl.NewModule("m")
		mem := m.Memory(memName, aw, 4, 1) // aig.MemArbitrary
		c := m.Register(cntName, aw, 0)
		c.SetNext(m.Inc(c.Q))
		rd := mem.Read(c.Q, m.InputBit("re"))
		m.AssertAlways("p", m.EqConst(rd, 0).Not())
		m.Done(c)
		return m
	}
	key := func(m *rtl.Module) string {
		cc, err := pass.Compile(m.N, []int{0}, pass.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return NetlistKey(cc.N, cc.Props)
	}
	a := key(build("mem", "cnt", 3))
	b := key(build("storage", "k", 3))
	if a != b {
		t.Error("renamed design changed the structural key")
	}
	if a == key(build("mem", "cnt", 4)) {
		t.Error("different memory geometry collided")
	}

	// Spec half: depth changes the exact key but not the family; engine
	// changes both (covered in internal/spec, re-checked here end to end).
	s6 := spec.Spec{Engine: spec.EngineBMC2, Depth: 6}
	s9 := spec.Spec{Engine: spec.EngineBMC2, Depth: 9}
	if FamilyID(a, s6) != FamilyID(a, s9) {
		t.Error("depth leaked into the family key")
	}
	if FamilyID(a, s6) == FamilyID(a, spec.Spec{Engine: spec.EngineBMC3, Depth: 6}) {
		t.Error("engine did not separate families")
	}
}

// An engine panic fails only its own job: the error carries the stack,
// /v1/stats counts it, and the next job on the same (single) worker still
// gets its verdict.
func TestEnginePanicFailsOnlyItsJob(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(s.Shutdown)
	s.runEngine = func(sp spec.Spec, ctx context.Context, n *aig.Netlist, cm *pass.Compiled, prop, start int, extend func(*bmc.Options)) (*bmc.Result, error) {
		if sp.Depth == 7 {
			panic("core: lazy model violates an instantiated forwarding axiom")
		}
		return sp.RunCompiledCtx(ctx, n, cm, prop, start, extend)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.Listener.Addr().String())

	bad, err := c.Submit(growthReq(t, 7, 0), true)
	if err != nil {
		t.Fatal(err)
	}
	if bad.State != "failed" || !strings.Contains(bad.Error, "engine panic: core: lazy model") ||
		!strings.Contains(bad.Error, "(*Server).solve") {
		t.Fatalf("panicking job: state %s, error %q", bad.State, bad.Error)
	}
	good := submitWait(t, c, growthReq(t, 8, 0))
	if good.Verdict == nil || good.Verdict.Kind != "NO_CE" {
		t.Fatalf("job after the panic: %+v", good)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if got := string(stats["serve.panics"]); got != "1" {
		t.Fatalf("serve.panics = %s, want 1", got)
	}
}

// A submission carrying a field this build does not know is rejected with
// 400 naming the field — whether it is a retired engine knob inside the
// spec or a misspelled top-level field — instead of running with the
// setting silently dropped. A retired engine name gets 400 naming it.
func TestSubmitRejectsUnknownFields(t *testing.T) {
	s := New(Config{Workers: 1})
	t.Cleanup(s.Shutdown)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	for _, c := range []struct{ body, want string }{
		{`{"format":"verilog","source":"module m; endmodule","spec":{"share":true}}`, `unknown field "share"`},
		{`{"format":"verilog","source":"module m; endmodule","spec":{"lazy":true}}`, `unknown field "lazy"`},
		{`{"format":"verilog","source":"module m; endmodule","spec":{"restart":"luby"}}`, `unknown field "restart"`},
		{`{"format":"verilog","source":"module m; endmodule","spec":{"no_simplify":true}}`, `unknown field "no_simplify"`},
		{`{"formatt":"verilog","source":"module m; endmodule"}`, `unknown field "formatt"`},
		// The retired k-induction engine is an unknown engine, not an alias.
		{`{"format":"verilog","source":"module m; endmodule","spec":{"engine":"kind"}}`, `unknown engine "kind"`},
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), c.want) {
			t.Errorf("%s: status %d, body %q; want 400 saying %s", c.body, resp.StatusCode, msg, c.want)
		}
	}
}

// startsOf counts the spans named name that a job's journal opens.
func startsOf(t *testing.T, c *Client, id, name string) int {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Events(id, &buf); err != nil {
		t.Fatal(err)
	}
	return strings.Count(buf.String(), `"ev":"start","name":"`+name+`"`)
}

// A served job compiles its netlist once, at submit: the worker's engine
// starts from that compile, so the journal of a cold and of a warm-started
// job each hold exactly one pass.compile span.
func TestServedJobCompilesOnce(t *testing.T) {
	_, c := testServer(t)
	cold := submitWait(t, c, growthReq(t, 6, 0))
	warm := submitWait(t, c, growthReq(t, 9, 0))
	if cold.Cached || warm.Cached || warm.WarmStart != 7 {
		t.Fatalf("want a cold then a warm-started run: cold %+v, warm %+v", cold, warm)
	}
	ce := submitWait(t, c, Request{Format: "verilog", Source: counterSrc, Prop: 0,
		Spec: spec.Spec{Engine: spec.EngineBMC3, Depth: 12}})
	if ce.Verdict.Kind != "CE" || ce.Verdict.Witness == nil {
		t.Fatalf("counter: %+v", ce.Verdict)
	}
	for _, st := range []*JobStatus{cold, warm, ce} {
		if got := startsOf(t, c, st.ID, "pass.compile"); got != 1 {
			t.Errorf("job %s journal holds %d pass.compile spans, want 1", st.ID, got)
		}
	}
}

// A finished job — answered from the cache, solved, or failed — keeps no
// source text, netlist or compiled model: only its verdict, keys and
// journal, which status and /events still serve.
func TestFinishedJobsReleaseTheirNetlists(t *testing.T) {
	s, c := testServer(t)
	solved := submitWait(t, c, growthReq(t, 6, 0))
	hit := submitWait(t, c, growthReq(t, 6, 0))
	failed, err := c.Submit(Request{Format: "btor2", Source: wedgeBTOR2(t), Prop: 0,
		Spec: spec.Spec{Engine: spec.EngineBMC1, Depth: 5}}, true)
	if err != nil {
		t.Fatal(err)
	}
	if solved.Cached || !hit.Cached || failed.State != "failed" {
		t.Fatalf("want solved, cached and failed jobs: %+v / %+v / %+v", solved, hit, failed)
	}
	for _, st := range []*JobStatus{solved, hit, failed} {
		s.mu.Lock()
		j := s.jobs[st.ID]
		s.mu.Unlock()
		j.mu.Lock()
		kept := j.netlist != nil || j.compiled != nil || j.req.Source != "" || j.req.SourceB64 != ""
		j.mu.Unlock()
		if kept {
			t.Errorf("finished job %s (%s, cached=%v) still holds its source, netlist or compile",
				st.ID, st.State, st.Cached)
		}
		again, err := c.Job(st.ID, false)
		if err != nil {
			t.Fatal(err)
		}
		if again.State != st.State || again.Key != st.Key || (st.Verdict != nil && again.Verdict.Kind != st.Verdict.Kind) {
			t.Errorf("job %s status changed after release: %+v, was %+v", st.ID, again, st)
		}
		// The byte-identical hit is answered from the source index, so its
		// journal holds the index lookup instead of a parse.
		span := "frontend.parse"
		if st == hit {
			span = "serve.lookup"
		}
		if startsOf(t, c, st.ID, span) != 1 {
			t.Errorf("job %s lost its journal", st.ID)
		}
	}
}

// A served pba job still runs the two-phase flow, which compiles inside
// each phase: the counter's depth-9 counter-example is found in phase 1
// and its witness replays on the source netlist.
func TestServedPBA(t *testing.T) {
	_, c := testServer(t)
	st := submitWait(t, c, Request{Format: "verilog", Source: counterSrc, Prop: 0,
		Spec: spec.Spec{Engine: spec.EnginePBA, Depth: 15}})
	if st.Verdict.Kind != "CE" || st.Verdict.Depth != 9 || st.Verdict.Witness == nil {
		t.Fatalf("pba on the counter: %+v", st.Verdict)
	}
	if got := startsOf(t, c, st.ID, "pba.phase"); got != 1 {
		t.Errorf("pba journal holds %d phases, want 1 (the counter-example ends phase 1)", got)
	}
	n, err := ParseNetlist("verilog", []byte(counterSrc), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Verdict.Witness.Replay(n, 0); err != nil {
		t.Fatalf("served pba witness does not replay on the source: %v", err)
	}
}

// paramCounterSrc is counterSrc with a parameterized register outside the
// property's cone. W also widens an input declared before en and rst, so
// two elaborations compile to the same cone but number their source
// inputs differently.
const paramCounterSrc = `
module counter #(parameter W = 2) (input clk, input [W-1:0] x, input en, input rst);
  reg [3:0] cnt;
  reg [W-1:0] junk;
  always @(posedge clk) begin
    junk <= junk + x;
    if (rst) cnt <= 4'd0;
    else if (en) cnt <= cnt + 4'd1;
  end
  assert(cnt != 4'd9, "never9");
endmodule`

// The same bytes elaborated with other parameters are another source
// netlist: the verdict transfers through the structural family, but a
// witness in the first elaboration's node coordinates must not be served
// to the second.
func TestParamsSeparateSourceKeys(t *testing.T) {
	_, c := testServer(t)
	req := func(w uint64) Request {
		return Request{Format: "verilog", Source: paramCounterSrc, Prop: 0,
			Params: map[string]uint64{"W": w}, Spec: spec.Spec{Engine: spec.EngineBMC3, Depth: 15}}
	}
	first := submitWait(t, c, req(2))
	if first.Verdict.Kind != "CE" || first.Verdict.Depth != 9 || first.Verdict.Witness == nil {
		t.Fatalf("W=2: %+v", first.Verdict)
	}
	second := submitWait(t, c, req(3))
	if second.Family != first.Family || !second.Cached || second.Verdict.Kind != "CE" {
		t.Fatalf("W=3 must hit W=2's family: cached=%v %+v", second.Cached, second.Verdict)
	}
	if second.Verdict.Witness != nil {
		n, err := ParseNetlist("verilog", []byte(paramCounterSrc), "", map[string]uint64{"W": 3})
		if err != nil {
			t.Fatal(err)
		}
		t.Fatalf("W=2's witness was served to W=3 (replay on W=3: %v)", second.Verdict.Witness.Replay(n, 0))
	}
	if SourceKey("verilog", "", map[string]uint64{"A": 1, "B": 2}, 0, nil) !=
		SourceKey("verilog", "", map[string]uint64{"B": 2, "A": 1}, 0, nil) {
		t.Error("SourceKey depends on the params map's iteration order")
	}
}
