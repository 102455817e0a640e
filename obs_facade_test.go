package emmver

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// quickstartDesign is the package-doc example: a zero-initialized memory
// whose unwritten words must read as zero. BMC-3 proves it by forward
// termination after a handful of depths — enough to exercise per-depth
// trace events without making the test slow.
func quickstartDesign() *Design {
	d := NewDesign("demo")
	mem := d.Memory("ram", 4, 8, MemZero)
	addr := d.Input("addr", 4)
	data := mem.Read(addr, True)
	d.AssertAlways("read-zero", d.IsZero(data))
	return d
}

func TestVerifyCtxHonorsCancelledContext(t *testing.T) {
	d := quickstartDesign()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := VerifyCtx(ctx, d.N, 0, Options{Engine: EngineBMC3, MaxDepth: 50})
	if r.Kind != TimedOut {
		t.Fatalf("already-cancelled context must report TimedOut, got %v", r)
	}
	many := VerifyAllCtx(ctx, d.N, []int{0}, Options{Engine: EngineBMC3, MaxDepth: 50})
	if many.Results[0].Kind != TimedOut {
		t.Fatalf("VerifyAllCtx under a cancelled context must report TimedOut, got %v", many.Results[0])
	}
}

// TestTraceJournalMatchesEMMSizes runs the quickstart design with a JSONL
// trace attached and reconciles the journal against the run's Result: the
// cumulative emm_clauses field of the last per-depth end event must match
// Stats.EMM (the acceptance bound is 1%; the implementation reports the
// same counter, so the match is exact), every span must start and end
// exactly once, and the metrics registry must agree with Stats.
func TestTraceJournalMatchesEMMSizes(t *testing.T) {
	d := quickstartDesign()
	var buf bytes.Buffer
	journal := NewJSONLTrace(&buf)
	opt := Observe(Options{Engine: EngineBMC3, MaxDepth: 20}, journal)
	r := Verify(d.N, 0, opt)
	if r.Kind != Proved {
		t.Fatalf("quickstart must prove: %v", r)
	}
	if err := journal.Flush(); err != nil {
		t.Fatal(err)
	}

	starts := make(map[float64]string)
	var depthEnds []map[string]interface{}
	var lastEMM float64
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var ev map[string]interface{}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("journal line is not valid JSON: %q: %v", line, err)
		}
		switch ev["ev"] {
		case "start":
			id := ev["span"].(float64)
			if _, dup := starts[id]; dup {
				t.Fatalf("span %v started twice", id)
			}
			starts[id] = ev["name"].(string)
		case "end":
			id := ev["span"].(float64)
			name, ok := starts[id]
			if !ok {
				t.Fatalf("span %v ended without starting", id)
			}
			if name != ev["name"] {
				t.Fatalf("span %v started as %q but ended as %q", id, name, ev["name"])
			}
			delete(starts, id)
			if ev["name"] == "bmc.depth" {
				depthEnds = append(depthEnds, ev)
				cum := ev["emm_clauses"].(float64)
				if cum < lastEMM {
					t.Fatalf("cumulative emm_clauses decreased: %v -> %v", lastEMM, cum)
				}
				lastEMM = cum
			}
		}
	}
	if len(starts) != 0 {
		t.Fatalf("%d spans never ended: %v", len(starts), starts)
	}
	if len(depthEnds) != r.Depth+1 {
		t.Fatalf("expected %d bmc.depth spans, got %d", r.Depth+1, len(depthEnds))
	}

	want := float64(r.Stats.EMM.Clauses() + r.Stats.EMM.InitClauses)
	if want == 0 {
		t.Fatal("quickstart run generated no EMM clauses; test design is wrong")
	}
	diff := lastEMM - want
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.01*want {
		t.Fatalf("journal emm_clauses=%v vs Stats.EMM=%v: off by more than 1%%", lastEMM, want)
	}

	snap := opt.Obs.Registry().Snapshot()
	if got := snap["solver.solves"]; got != int64(r.Stats.SolveCalls) {
		t.Fatalf("registry solves=%d vs Stats.SolveCalls=%d", got, r.Stats.SolveCalls)
	}
	if got := snap["bmc.depth"]; got != int64(r.Depth) {
		t.Fatalf("registry depth gauge=%d vs Result.Depth=%d", got, r.Depth)
	}
	// The registry aggregates BOTH windows (the backward induction window
	// carries its own EMM generator), while Stats.EMM reports the forward
	// window alone — so the fleet-wide total must dominate it.
	if got := snap["emm.addr_clauses"] + snap["emm.readdata_clauses"] + snap["emm.init_clauses"]; got < int64(want) {
		t.Fatalf("registry EMM clause total=%d below forward-window Stats.EMM=%v", got, want)
	}
}

// TestSolverCountersReconcile runs a conflict-heavy shared-address design
// and reconciles the solver counters two ways: Result.Stats and the metrics
// registry must tell the same story. The quickstart design is too easy
// here — BMC-3's backward induction proves any latch-free property at
// depth 0 — so this test uses plain BMC-2 on the §S2 shape: one write and
// two reads racing on a shared address bus, with the optimizer caches off
// so every depth is a real refutation.
func TestSolverCountersReconcile(t *testing.T) {
	d := NewDesign("shared-addr")
	mem := d.Memory("ram", 4, 8, MemArbitrary)
	addr := d.Input("a", 4)
	mem.Write(addr, d.Input("wd", 8), d.InputBit("we"))
	re0 := d.InputBit("re0")
	re1 := d.InputBit("re1")
	rd0 := mem.Read(addr, re0)
	rd1 := mem.Read(addr, re1)
	both := d.N.And(re0, re1)
	d.AssertAlways("shared-read-agree", d.N.And(both, d.Eq(rd0, rd1).Not()).Not())
	d.Done()

	var buf bytes.Buffer
	journal := NewJSONLTrace(&buf)
	opt := Options{Engine: EngineBMC2, MaxDepth: 10}
	opt.DisableStrash = true
	opt.DisableEMMMemo = true
	opt = Observe(opt, journal)
	r := Verify(d.N, 0, opt)
	if r.Kind != NoCounterExample {
		t.Fatalf("valid property must not be falsified: %v", r)
	}
	if err := journal.Flush(); err != nil {
		t.Fatal(err)
	}

	if r.Stats.Restarts == 0 {
		t.Fatal("conflict-heavy run never restarted")
	}

	snap := opt.Obs.Registry().Snapshot()
	for name, want := range map[string]int64{
		"solver.solves":    int64(r.Stats.SolveCalls),
		"solver.conflicts": r.Stats.Conflicts,
		"solver.restarts":  r.Stats.Restarts,
	} {
		if got := snap[name]; got != want {
			t.Errorf("registry %s=%d vs Stats=%d", name, got, want)
		}
	}
}
