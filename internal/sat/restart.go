package sat

// EMA restart tuning. The solver restarts glucose-style: when the
// short-horizon average LBD of recent conflicts exceeds the long-run average
// by emaMargin, postponing ("blocking") when the trail is much deeper than
// usual — a sign the search is closing in on a model.
const (
	emaMargin       = 1.25 // restart when recent glue > margin * long-run glue
	emaBlockFactor  = 1.4  // block when the trail is this much deeper than usual
	emaMinConflicts = 50   // conflicts that must separate two restarts
	emaFastHorizon  = 32   // recent-glue EMA horizon (≈ glucose's 50-window)
	emaTrailHorizon = 4096 // trail-depth EMA horizon
)

// emaState carries the adaptive-restart averages. The long-run reference is
// the exact arithmetic mean of every conflict's LBD (glucose's "global
// average"), which self-corrects quickly after warm-up; the recent signal is
// an EMA reset to the mean at every restart, standing in for glucose's
// bounded queue.
type emaState struct {
	fast     float64 // recent-glue EMA
	trailEMA float64 // typical trail depth at conflict time
	glueSum  int64
	glueCnt  int64
}

func (e *emaState) mean() float64 {
	if e.glueCnt == 0 {
		return 0
	}
	return float64(e.glueSum) / float64(e.glueCnt)
}

// update folds one conflict into the averages. When canBlock is set (enough
// conflicts since the last restart) and the search is both glue-hot and
// unusually deep, the pending restart is postponed by resetting the recent
// EMA; update reports whether that happened so the caller can count it.
func (e *emaState) update(lbd, trail int, canBlock bool) (blocked bool) {
	e.glueSum += int64(lbd)
	e.glueCnt++
	f, t := float64(lbd), float64(trail)
	if e.glueCnt == 1 {
		e.fast, e.trailEMA = f, t
		return false
	}
	e.fast += (f - e.fast) / emaFastHorizon
	e.trailEMA += (t - e.trailEMA) / emaTrailHorizon
	if canBlock && e.fast > emaMargin*e.mean() && t > emaBlockFactor*e.trailEMA {
		e.fast = e.mean()
		return true
	}
	return false
}

// shouldRestart reports whether the recent glue trend warrants a restart.
func (e *emaState) shouldRestart() bool {
	return e.glueCnt > 1 && e.fast > emaMargin*e.mean()
}

// onRestart resets the recent window (glucose clears its queue).
func (e *emaState) onRestart() { e.fast = e.mean() }
