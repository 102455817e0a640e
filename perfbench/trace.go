package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"emmver/internal/obs"
)

// memSink keeps trace events in memory; they are turned into spans and
// summarized when the job ends, so tracing never writes during a timed
// region.
type memSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (m *memSink) Emit(e obs.Event) {
	m.mu.Lock()
	m.events = append(m.events, e)
	m.mu.Unlock()
}

func (m *memSink) take() []obs.Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := m.events
	m.events = nil
	return out
}

// span is one closed trace span. lane names the goroutine that ran it:
// "" for the job's own goroutine, otherwise the worker index the engine
// stamps on the spans of its fleet workers.
type span struct {
	name       string
	lane       string
	start, end int64 // nanoseconds on one clock
	self       int64
}

func (s *span) dur() int64 { return s.end - s.start }

// spansFromEvents pairs start and end events by span id.
func spansFromEvents(evs []obs.Event) []*span {
	starts := map[uint64]obs.Event{}
	var out []*span
	for _, e := range evs {
		switch e.Ev {
		case "start":
			starts[e.Span] = e
		case "end":
			st, ok := starts[e.Span]
			if !ok {
				continue
			}
			delete(starts, e.Span)
			out = append(out, &span{
				name:  e.Name,
				lane:  laneOf(e.Fields),
				start: st.T.UnixNano(),
				end:   e.T.UnixNano(),
			})
		}
	}
	return out
}

func laneOf(fields []obs.KV) string {
	for _, kv := range fields {
		if kv.K == "worker" {
			return fmt.Sprint(kv.V)
		}
	}
	return ""
}

// spansFromJSONL parses a served job's /events stream (the obs JSONL
// journal) into spans. Times there have microsecond resolution.
func spansFromJSONL(data []byte) ([]*span, error) {
	type rec struct {
		TUS    int64  `json:"t_us"`
		Ev     string `json:"ev"`
		Name   string `json:"name"`
		Span   uint64 `json:"span"`
		Worker *int   `json:"worker"`
	}
	var evs []obs.Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var r rec
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, fmt.Errorf("events: %w", err)
		}
		e := obs.Event{T: time.UnixMicro(r.TUS), Ev: r.Ev, Name: r.Name, Span: r.Span}
		if r.Worker != nil {
			e.Fields = []obs.KV{obs.F("worker", *r.Worker)}
		}
		evs = append(evs, e)
	}
	return spansFromEvents(evs), sc.Err()
}

// computeSelf sets each span's self time: its duration minus the union of
// the intervals its child spans cover. obs events carry no parent id, so
// the parent is found by interval containment: the innermost span of the
// same lane that contains the child, or, for the first span of a worker
// lane, the innermost containing span of the job's own lane (the call
// that started the fleet). Children running in parallel on several lanes
// therefore overlap inside their parent, and the sum of all self times is
// the job's lane time: its wall time when it ran on one goroutine.
func computeSelf(spans []*span) {
	sorted := append([]*span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].start != sorted[j].start {
			return sorted[i].start < sorted[j].start
		}
		return sorted[i].end > sorted[j].end
	})
	stacks := map[string][]*span{}
	innermost := func(lane string, s *span) *span {
		st := stacks[lane]
		for len(st) > 0 && st[len(st)-1].end <= s.start && st[len(st)-1].end < s.end {
			st = st[:len(st)-1]
		}
		stacks[lane] = st
		for i := len(st) - 1; i >= 0; i-- {
			if st[i].start <= s.start && s.end <= st[i].end {
				return st[i]
			}
		}
		return nil
	}
	children := map[*span][][2]int64{}
	for _, s := range sorted {
		p := innermost(s.lane, s)
		if p == nil && s.lane != "" {
			p = innermost("", s)
		}
		if p != nil {
			children[p] = append(children[p], [2]int64{s.start, s.end})
		}
		stacks[s.lane] = append(stacks[s.lane], s)
	}
	for _, s := range spans {
		s.self = s.dur() - unionLen(children[s])
	}
}

// unionLen is the total length covered by a set of intervals.
func unionLen(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return total + cur[1] - cur[0]
}

// Span names the benchmark itself records around its calls into the
// program. Every other span name comes from the engine.
const (
	spanJob      = "bench.job"
	spanParse    = "frontend.parse"
	spanCheck    = "bmc.check"
	spanServeJob = "serve.job"
)

// layers are the modules the per-layer split reports, in output order.
// unroll has no span of its own: unrolling runs inside bmc.depth, so its
// time is part of the bmc layer and its work shows as unroll.* counts. sim
// has none either; sim.replay_ms times its replays directly.
var layers = []string{"frontend", "pass", "bmc", "core", "sat", "serve"}

// layerOf maps a span name to its layer, "" for the benchmark's own
// spans that wrap a call into the program. Time inside such a span that no
// engine span covers stays unattributed, so a gap in the engine's own
// instrumentation lowers the coverage rather than landing in a layer.
func layerOf(name string) string {
	switch {
	case name == spanJob, name == spanCheck:
		return ""
	case name == spanParse:
		return "frontend"
	case strings.HasPrefix(name, "pass."):
		return "pass"
	case name == "emm.generate":
		return "core"
	case strings.HasPrefix(name, "solve."), name == "bmc.simplify":
		return "sat"
	case name == spanServeJob:
		return "serve"
	case strings.HasPrefix(name, "bmc."):
		return "bmc"
	}
	return ""
}

// traceTotals accumulates span statistics over the traced jobs of a run.
type traceTotals struct {
	jobs     int
	byName   map[string]int64 // summed duration per span name (ns)
	selfName map[string]int64 // summed self time per span name (ns)
	byLayer  map[string]int64 // summed self time per layer (ns)
	laneTime int64            // summed self time over all spans (ns)
}

func newTraceTotals() *traceTotals {
	return &traceTotals{
		byName:   map[string]int64{},
		selfName: map[string]int64{},
		byLayer:  map[string]int64{},
	}
}

// addJob folds one job's spans in.
func (t *traceTotals) addJob(spans []*span) {
	computeSelf(spans)
	t.jobs++
	for _, s := range spans {
		t.byName[s.name] += s.dur()
		t.selfName[s.name] += s.self
		t.laneTime += s.self
		if l := layerOf(s.name); l != "" {
			t.byLayer[l] += s.self
		}
	}
}

// perJobMS is the mean per-job total of a span's duration, in ms.
func (t *traceTotals) perJobMS(names ...string) float64 {
	if t.jobs == 0 {
		return 0
	}
	var ns int64
	for _, n := range names {
		ns += t.byName[n]
	}
	return float64(ns) / 1e6 / float64(t.jobs)
}

// perJobSelfMS is the mean per-job self time of the named spans, in ms.
func (t *traceTotals) perJobSelfMS(names ...string) float64 {
	if t.jobs == 0 {
		return 0
	}
	var ns int64
	for _, n := range names {
		ns += t.selfName[n]
	}
	return float64(ns) / 1e6 / float64(t.jobs)
}

// layerMetrics reports every layer's mean self time per job and its share
// of the job's lane time, the share the layers cover together, and the
// self time of the benchmark's own spans that no layer claims.
func (t *traceTotals) layerMetrics(m metrics) {
	var covered int64
	for _, l := range layers {
		ns := t.byLayer[l]
		covered += ns
		ms := 0.0
		share := 0.0
		if t.jobs > 0 {
			ms = float64(ns) / 1e6 / float64(t.jobs)
		}
		if t.laneTime > 0 {
			share = float64(ns) / float64(t.laneTime)
		}
		m.set("layer."+l+".self_ms", ms, "ms")
		m.set("layer."+l+".share", share, "fraction")
	}
	cov, rest := 0.0, 0.0
	if t.laneTime > 0 {
		cov = float64(covered) / float64(t.laneTime)
	}
	if t.jobs > 0 {
		rest = float64(t.laneTime-covered) / 1e6 / float64(t.jobs)
	}
	m.set("layer.coverage", cov, "fraction")
	m.set("layer.unattributed.self_ms", rest, "ms")
}
