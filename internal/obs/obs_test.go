package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrent hammers one registry from many goroutines (run
// under -race in CI): concurrent first-use creation, counter bumps, gauge
// maxing, and snapshots must all be safe and lose no increments.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared.counter")
			g := r.Gauge("shared.gauge")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				r.Counter("late.counter").Add(2)
				g.Max(int64(w*perWorker + i))
				if i%256 == 0 {
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap["shared.counter"] != workers*perWorker {
		t.Fatalf("lost counter increments: %d", snap["shared.counter"])
	}
	if snap["late.counter"] != 2*workers*perWorker {
		t.Fatalf("lost late-created counter increments: %d", snap["late.counter"])
	}
	if want := int64(workers*perWorker - 1); snap["shared.gauge"] != want {
		t.Fatalf("gauge max: got %d want %d", snap["shared.gauge"], want)
	}
}

func TestNilSafety(t *testing.T) {
	var o *Observer
	var r *Registry
	var c *Counter
	var g *Gauge
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatal("nil counter value")
	}
	g.Set(7)
	g.Max(9)
	if g.Value() != 0 {
		t.Fatal("nil gauge value")
	}
	if r.Counter("x") != nil || r.Gauge("y") != nil || r.Snapshot() != nil {
		t.Fatal("nil registry must return nils")
	}
	if o.Enabled() || o.Registry() != nil || o.TraceSink() != nil || o.With(F("a", 1)) != nil {
		t.Fatal("nil observer must be inert")
	}
	sp := o.Span("x", F("k", "v"))
	sp.End(F("k2", 2))
	o.Point("y")
	o.Counter("z").Inc()
	o.Gauge("w").Set(1)
	// Metrics-only observer: spans are free, counters work.
	mo := New(NewRegistry(), nil)
	if mo.Enabled() {
		t.Fatal("observer without sink must report disabled tracing")
	}
	mo.Span("x").End()
	mo.Counter(MConflicts).Add(3)
	if mo.Counter(MConflicts).Value() != 3 {
		t.Fatal("metrics-only observer lost a count")
	}
}

// TestJSONLJournal checks that emitted events round-trip as flat JSON
// lines with paired start/end spans and base-field attribution.
func TestJSONLJournal(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	o := New(NewRegistry(), sink).With(F("worker", 3))

	sp := o.Span("solve.forward", F("depth", 7))
	time.Sleep(time.Millisecond)
	sp.End(F("result", "UNSAT"), F("quote", `a"b\c`), F("neg", -12), F("flag", true))
	o.Point("pba.update", F("core", 42))
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected 3 journal lines, got %d: %q", len(lines), buf.String())
	}
	var evs []map[string]any
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("invalid JSONL line %q: %v", ln, err)
		}
		evs = append(evs, m)
	}
	if evs[0]["ev"] != "start" || evs[1]["ev"] != "end" || evs[2]["ev"] != "point" {
		t.Fatalf("event types wrong: %v", evs)
	}
	if evs[0]["span"] != evs[1]["span"] {
		t.Fatalf("span ids must pair: %v vs %v", evs[0]["span"], evs[1]["span"])
	}
	if evs[1]["dur_us"].(float64) < 500 {
		t.Fatalf("end event lost its duration: %v", evs[1]["dur_us"])
	}
	for i, m := range evs {
		if m["worker"] != float64(3) {
			t.Fatalf("event %d lost base field attribution: %v", i, m)
		}
	}
	if evs[1]["result"] != "UNSAT" || evs[1]["quote"] != `a"b\c` || evs[1]["neg"] != float64(-12) || evs[1]["flag"] != true {
		t.Fatalf("end fields mangled: %v", evs[1])
	}
	if evs[0]["depth"] != float64(7) || evs[2]["core"] != float64(42) {
		t.Fatalf("payload fields mangled: %v %v", evs[0], evs[2])
	}
}

// TestJSONLConcurrent interleaves emitters; every line must stay a valid,
// complete JSON object (run under -race in CI).
func TestJSONLConcurrent(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	o := New(nil, sink)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wo := o.With(F("worker", w))
			for i := 0; i < 500; i++ {
				wo.Span("op", F("i", i)).End()
			}
		}(w)
	}
	wg.Wait()
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4*500*2 {
		t.Fatalf("expected %d lines, got %d", 4*500*2, len(lines))
	}
	for _, ln := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(ln), &m); err != nil {
			t.Fatalf("torn line %q: %v", ln, err)
		}
	}
}

func TestProgressReporter(t *testing.T) {
	r := NewRegistry()
	r.Gauge(MDepth).Set(12)
	r.Counter(MConflicts).Add(3456)
	r.Counter(MEMMAddrClauses).Add(100)
	r.Counter(MEMMSharedReads).Add(7)
	var buf bytes.Buffer
	var mu sync.Mutex
	w := lockedWriter{mu: &mu, w: &buf}
	p := StartProgress(r, w, time.Millisecond)
	time.Sleep(10 * time.Millisecond)
	r.Counter(MConflicts).Add(1000)
	p.Stop()
	mu.Lock()
	out := buf.String()
	mu.Unlock()
	if !strings.Contains(out, "depth=12") || !strings.Contains(out, "emm=") || !strings.Contains(out, "shared 7") {
		t.Fatalf("progress line missing summary: %q", out)
	}
	// Stop is idempotent and nil-safe.
	p.Stop()
	(*Progress)(nil).Stop()
	if StartProgress(nil, &buf, time.Second) != nil || StartProgress(r, nil, time.Second) != nil || StartProgress(r, &buf, 0) != nil {
		t.Fatal("degenerate StartProgress must return nil")
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (lw lockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}

func TestMetricsEndpoint(t *testing.T) {
	r := NewRegistry()
	r.Counter(MConflicts).Add(77)
	r.Gauge(MDepth).Set(5)
	srv := httptest.NewServer(DebugMux(r))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	if !strings.Contains(body, "emmver_solver_conflicts 77") || !strings.Contains(body, "emmver_bmc_depth 5") {
		t.Fatalf("metrics dump wrong:\n%s", body)
	}
}
