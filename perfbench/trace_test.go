package main

import (
	"testing"
	"time"

	"emmver/internal/obs"
)

func byName(spans []*span) map[string]*span {
	out := map[string]*span{}
	for _, s := range spans {
		out[s.name] = s
	}
	return out
}

func TestSelfTimeNested(t *testing.T) {
	spans := []*span{
		{name: "root", start: 0, end: 100},
		{name: "a", start: 10, end: 40},
		{name: "a.1", start: 15, end: 25},
		{name: "b", start: 50, end: 90},
	}
	computeSelf(spans)
	want := map[string]int64{"root": 30, "a": 20, "a.1": 10, "b": 40}
	var sum int64
	for name, s := range byName(spans) {
		if s.self != want[name] {
			t.Errorf("%s self = %d, want %d", name, s.self, want[name])
		}
		sum += s.self
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, want the wall time 100", sum)
	}
}

// Worker lanes run in parallel under the call that started them: the
// parent loses the union of their intervals, and the self times add up
// to the lane time.
func TestSelfTimeParallelLanes(t *testing.T) {
	spans := []*span{
		{name: "root", start: 0, end: 100},
		{name: "check", start: 5, end: 95},
		{name: "prop0", lane: "0", start: 10, end: 80},
		{name: "depth0", lane: "0", start: 15, end: 30},
		{name: "prop1", lane: "1", start: 20, end: 90},
	}
	computeSelf(spans)
	want := map[string]int64{"root": 10, "check": 10, "prop0": 55, "depth0": 15, "prop1": 70}
	var sum int64
	for name, s := range byName(spans) {
		if s.self != want[name] {
			t.Errorf("%s self = %d, want %d", name, s.self, want[name])
		}
		sum += s.self
	}
	if sum != 160 {
		t.Errorf("self times sum to %d, want the lane time 160", sum)
	}
}

// Back-to-back siblings touching at one instant are siblings, not parent
// and child.
func TestSelfTimeAdjacentSiblings(t *testing.T) {
	spans := []*span{
		{name: "root", start: 0, end: 30},
		{name: "a", start: 0, end: 10},
		{name: "b", start: 10, end: 30},
	}
	computeSelf(spans)
	got := byName(spans)
	if got["root"].self != 0 || got["a"].self != 10 || got["b"].self != 20 {
		t.Errorf("self = root %d a %d b %d, want 0 10 20", got["root"].self, got["a"].self, got["b"].self)
	}
}

func TestUnionLen(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {25, 26}}
	if got := unionLen(iv); got != 25 {
		t.Errorf("unionLen = %d, want 25", got)
	}
	if unionLen(nil) != 0 {
		t.Error("empty union is not 0")
	}
}

func TestSpansFromJSONLPairsStartAndEnd(t *testing.T) {
	journal := []byte(`{"t_us":1000,"ev":"start","name":"serve.job","span":1}
{"t_us":1100,"ev":"start","name":"bmc.depth","span":2,"worker":3}
{"t_us":1150,"ev":"point","name":"x"}
{"t_us":1300,"ev":"end","name":"bmc.depth","span":2,"dur_us":200,"worker":3}
{"t_us":1500,"ev":"end","name":"serve.job","span":1,"dur_us":500}
`)
	spans, err := spansFromJSONL(journal)
	if err != nil {
		t.Fatal(err)
	}
	got := byName(spans)
	if len(spans) != 2 || got["serve.job"].dur() != 500_000 || got["bmc.depth"].dur() != 200_000 {
		t.Fatalf("spans = %+v", spans)
	}
	if got["bmc.depth"].lane != "3" || got["serve.job"].lane != "" {
		t.Errorf("lanes = %q %q", got["bmc.depth"].lane, got["serve.job"].lane)
	}
}

func TestSpansFromEventsUsesWorkerLane(t *testing.T) {
	o := obs.New(nil, &memSink{})
	sink := o.TraceSink().(*memSink)
	sp := o.With(obs.F("worker", 1)).Span("bmc.prop")
	time.Sleep(time.Millisecond)
	sp.End()
	spans := spansFromEvents(sink.take())
	if len(spans) != 1 || spans[0].lane != "1" || spans[0].dur() <= 0 {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		spanParse:        "frontend",
		"pass.compile":   "pass",
		"pass.coi":       "pass",
		"emm.generate":   "core",
		"solve.ce":       "sat",
		"solve.backward": "sat",
		"bmc.simplify":   "sat",
		"bmc.depth":      "bmc",
		"bmc.prop":       "bmc",
		spanCheck:        "",
		spanServeJob:     "serve",
		spanJob:          "",
	}
	for name, want := range cases {
		if got := layerOf(name); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestTraceTotalsShares(t *testing.T) {
	tt := newTraceTotals()
	tt.addJob([]*span{
		{name: spanJob, start: 0, end: 100},
		{name: spanParse, start: 0, end: 10},
		{name: spanCheck, start: 10, end: 95},
		{name: "solve.ce", start: 10, end: 90},
	})
	m := metrics{}
	tt.layerMetrics(m)
	if got := m["layer.sat.share"].Value; got != 0.8 {
		t.Errorf("sat share = %v, want 0.8", got)
	}
	if got := m["layer.coverage"].Value; got != 0.9 {
		t.Errorf("coverage = %v, want 0.9", got)
	}
	// The benchmark's own spans (5 ns of bmc.check, 5 ns of bench.job)
	// belong to no layer.
	if got := m["layer.unattributed.self_ms"].Value; got != 10e-6 {
		t.Errorf("unattributed = %v ms, want 1e-5", got)
	}
	if got := m["layer.frontend.self_ms"].Value; got != 10e-6 {
		t.Errorf("frontend self = %v ms, want 1e-5", got)
	}
}
