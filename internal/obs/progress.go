package obs

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Progress is a heartbeat goroutine that periodically summarizes the
// registry (depth, formula size, conflict rate, heap) to a log writer —
// the -progress CLI flag. Start with StartProgress, stop with Stop; a
// final line is emitted on Stop so short runs still report once.
type Progress struct {
	reg   *Registry
	w     io.Writer
	every time.Duration

	stop chan struct{}
	done chan struct{}
	once sync.Once

	start time.Time
	prev  map[string]int64
	prevT time.Time
}

// StartProgress launches the heartbeat. Returns nil (safe to Stop) when
// reg or w is nil or the interval is non-positive.
func StartProgress(reg *Registry, w io.Writer, every time.Duration) *Progress {
	if reg == nil || w == nil || every <= 0 {
		return nil
	}
	now := time.Now()
	p := &Progress{
		reg:   reg,
		w:     w,
		every: every,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		start: now,
		prev:  reg.Snapshot(),
		prevT: now,
	}
	go p.loop()
	return p
}

// Stop halts the heartbeat after one final summary line. Safe on nil and
// idempotent.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	p.once.Do(func() { close(p.stop) })
	<-p.done
}

func (p *Progress) loop() {
	defer close(p.done)
	t := time.NewTicker(p.every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.emit()
		case <-p.stop:
			p.emit()
			return
		}
	}
}

func (p *Progress) emit() {
	now := time.Now()
	snap := p.reg.Snapshot()
	dt := now.Sub(p.prevT).Seconds()
	if dt <= 0 {
		dt = 1e-9
	}
	rate := float64(snap[MConflicts]-p.prev[MConflicts]) / dt

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	var b strings.Builder
	fmt.Fprintf(&b, "[progress %s] depth=%d solves=%s clauses=%s vars=%s conflicts=%s (%s/s)",
		time.Since(p.start).Round(time.Second),
		snap[MDepth],
		human(snap[MSolves]),
		human(snap[MSolverClauses]),
		human(snap[MSolverVars]),
		human(snap[MConflicts]),
		human(int64(rate)))
	if emm := snap[MEMMAddrClauses] + snap[MEMMReadDataClauses] + snap[MEMMInitClauses]; emm > 0 {
		fmt.Fprintf(&b, " emm=%s (memo %s, shared %s)", human(emm), human(snap[MEMMMemoHits]), human(snap[MEMMSharedReads]))
	}
	if snap[MStrashHits] > 0 {
		fmt.Fprintf(&b, " strash=%s", human(snap[MStrashHits]))
	}
	if snap[MPropsResolved] > 0 {
		fmt.Fprintf(&b, " props=%d", snap[MPropsResolved])
	}
	if snap[MPBALatchReasons] > 0 {
		fmt.Fprintf(&b, " |LR|=%d core=%d", snap[MPBALatchReasons], snap[MPBACoreSize])
	}
	fmt.Fprintf(&b, " heap=%dMB", ms.HeapAlloc>>20)
	fmt.Fprintln(p.w, b.String())

	p.prev, p.prevT = snap, now
}

// human renders a count with k/M suffixes for log lines.
func human(v int64) string {
	switch {
	case v >= 10_000_000:
		return fmt.Sprintf("%.1fM", float64(v)/1e6)
	case v >= 10_000:
		return fmt.Sprintf("%.0fk", float64(v)/1e3)
	default:
		return fmt.Sprintf("%d", v)
	}
}
