package serve

import (
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"emmver/internal/spec"
)

// twoModuleSrc has two counter modules; the last one, counter2, is the
// default top and has two properties. Its parameter W widens a register
// outside the properties' cones.
const twoModuleSrc = `
module counter(input clk, input en, input rst);
  reg [3:0] cnt;
  always @(posedge clk) begin
    if (rst) cnt <= 4'd0;
    else if (en) cnt <= cnt + 4'd1;
  end
  assert(cnt != 4'd9, "never9");
endmodule

module counter2 #(parameter W = 2) (input clk, input [W-1:0] x, input en, input rst);
  reg [3:0] cnt;
  reg [W-1:0] junk;
  always @(posedge clk) begin
    junk <= junk + x;
    if (rst) cnt <= 4'd0;
    else if (en) cnt <= cnt + 4'd1;
  end
  assert(cnt != 4'd7, "never7");
  assert(cnt != 4'd11, "never11");
endmodule`

// sourceEntries is the number of source index entries the cache holds.
func (c *Cache) sourceEntries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.sources)
}

// forgetSources empties the source index, so the next submission of any
// source takes the parse path.
func (c *Cache) forgetSources() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sources = make(map[string]*sourceEntry)
}

// submitCounted submits req, waits for its verdict and checks that the
// cache counted it exactly once: as an exact hit, and as a source hit iff
// sourceHit.
func submitCounted(t *testing.T, s *Server, c *Client, req Request, sourceHit bool) *JobStatus {
	t.Helper()
	before := s.CacheStats()
	st := submitWait(t, c, req)
	after := s.CacheStats()
	wantSource := before.SourceHits
	if sourceHit {
		wantSource++
	}
	if !st.Cached || after.Hits != before.Hits+1 || after.WarmHits != before.WarmHits ||
		after.Misses != before.Misses || after.SourceHits != wantSource {
		t.Fatalf("want a cached answer counted once (source hit %v): cached=%v, counters %+v -> %+v",
			sourceHit, st.Cached, before, after)
	}
	return st
}

// A byte-identical resubmission whose answer the cache holds is answered
// from the source index: its journal holds the index lookup and no parse
// or compile, and its status is the one the parse path gives the same
// request, witness included.
func TestSourceIndexHitSkipsFrontend(t *testing.T) {
	s, c := testServer(t)
	req := Request{Format: "verilog", Source: counterSrc, Prop: 0,
		Spec: spec.Spec{Engine: spec.EngineBMC3, Depth: 15}}
	first := submitWait(t, c, req)
	if first.Cached || first.Verdict.Kind != "CE" || first.Verdict.Witness == nil {
		t.Fatalf("counter: cached=%v %+v", first.Cached, first.Verdict)
	}
	indexed := submitCounted(t, s, c, req, true)
	for span, want := range map[string]int{"serve.lookup": 1, "frontend.parse": 0, "pass.compile": 0} {
		if got := startsOf(t, c, indexed.ID, span); got != want {
			t.Errorf("index hit's journal holds %d %s spans, want %d", got, span, want)
		}
	}
	s.cache.forgetSources()
	parsed := submitCounted(t, s, c, req, false)
	if got := startsOf(t, c, parsed.ID, "frontend.parse"); got != 1 {
		t.Errorf("parse-path hit's journal holds %d frontend.parse spans, want 1", got)
	}
	indexed.ID, parsed.ID = "", ""
	if !reflect.DeepEqual(indexed, parsed) {
		t.Fatalf("index hit and parse-path hit differ:\n index: %+v %+v\n parse: %+v %+v",
			indexed, indexed.Verdict, parsed, parsed.Verdict)
	}
	if indexed.Key != first.Key || indexed.Family != first.Family || indexed.Verdict.Witness == nil {
		t.Fatalf("index hit lost the solved job's keys or witness: %+v, solved %+v", indexed, first)
	}

	// Concurrent resubmissions all hit the index, each counted once.
	before := s.CacheStats()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := c.Submit(req, true)
			if err != nil || !st.Cached || st.Verdict.Kind != "CE" {
				t.Errorf("concurrent resubmission: %+v, %v", st, err)
			}
		}()
	}
	wg.Wait()
	if after := s.CacheStats(); after.Hits != before.Hits+8 || after.SourceHits != before.SourceHits+8 {
		t.Fatalf("8 concurrent resubmissions: counters %+v -> %+v", before, after)
	}
}

// The index is keyed by every field the parse and compile read: the same
// bytes with another property, top module, parameter value or pass
// pipeline take the parse path, and are indexed in their own right.
func TestSourceIndexKeysEveryField(t *testing.T) {
	s, c := testServer(t)
	base := Request{Format: "verilog", Source: twoModuleSrc, Prop: 0,
		Spec: spec.Spec{Engine: spec.EngineBMC3, Depth: 15}}
	if st := submitWait(t, c, base); st.Cached || st.Verdict.Kind != "CE" || st.Verdict.Depth != 7 {
		t.Fatalf("seed: cached=%v %+v, want CE depth=7", st.Cached, st.Verdict)
	}
	submitCounted(t, s, c, base, true)

	prop := base
	prop.Prop = 1
	top := base
	top.Top = "counter"
	lastTop := base
	lastTop.Top = "counter2" // the default top, named: the same netlist
	params := base
	params.Params = map[string]uint64{"W": 3}
	passes := base
	passes.Spec.Passes = "coi"
	for _, v := range []struct {
		name  string
		req   Request
		depth int
	}{{"prop", prop, 11}, {"top", top, 9}, {"named top", lastTop, 7}, {"params", params, 7}, {"passes", passes, 7}} {
		before := s.CacheStats()
		st := submitWait(t, c, v.req)
		if after := s.CacheStats(); after.SourceHits != before.SourceHits {
			t.Fatalf("%s: answered from the base request's index entry: %+v", v.name, st)
		}
		if st.Verdict.Kind != "CE" || st.Verdict.Depth != v.depth {
			t.Fatalf("%s: %+v, want CE depth=%d", v.name, st.Verdict, v.depth)
		}
		submitCounted(t, s, c, v.req, true)
	}
}

// A submission that fails to parse, or names a property its design does
// not have, is never indexed: resubmitting it fails the same way.
func TestSourceIndexSkipsFailedSubmissions(t *testing.T) {
	s, c := testServer(t)
	for _, req := range []Request{
		{Format: "verilog", Source: "module m(input clk); reg r endmodule", Spec: spec.Spec{Depth: 3}},
		{Format: "verilog", Source: counterSrc, Prop: 1, Spec: spec.Spec{Depth: 3}},
	} {
		_, first := c.Submit(req, true)
		_, second := c.Submit(req, true)
		if first == nil || !strings.HasPrefix(first.Error(), "400 ") || second == nil || second.Error() != first.Error() {
			t.Fatalf("want the same 400 twice: %v / %v", first, second)
		}
	}
	if n := s.cache.sourceEntries(); n != 0 {
		t.Fatalf("failed submissions left %d source index entries", n)
	}
}

// The source index is bounded by the cache's capacity. A source evicted
// from it is still answered, through the parse path.
func TestSourceIndexBoundedByCacheCap(t *testing.T) {
	s := New(Config{Workers: 1, CacheCap: 2})
	t.Cleanup(s.Shutdown)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	c := NewClient(ts.Listener.Addr().String())
	// Decoy-salted variants are distinct sources of one family.
	for decoys := 0; decoys < 5; decoys++ {
		st := submitWait(t, c, growthReq(t, 8, decoys))
		if st.Verdict.Kind != "NO_CE" || st.Cached != (decoys > 0) {
			t.Fatalf("decoys %d: cached=%v %+v", decoys, st.Cached, st.Verdict)
		}
		if n := s.cache.sourceEntries(); n > 2 {
			t.Fatalf("after %d sources the index holds %d entries, cap 2", decoys+1, n)
		}
	}
	st := submitCounted(t, s, c, growthReq(t, 8, 0), false)
	if st.Verdict.Kind != "NO_CE" || st.Verdict.Depth != 8 {
		t.Fatalf("evicted source: %+v", st.Verdict)
	}
	submitCounted(t, s, c, growthReq(t, 8, 0), true)
}
