package microbench

import "testing"

// TestPropagateCountsOneCall runs Propagate the way cmd/emmbench does:
// testing.Benchmark calls the body once per calibration round, and each
// call must report its own solves only. 19,998 is the chain's binary
// clause count, so each solve serves every binary link once.
func TestPropagateCountsOneCall(t *testing.T) {
	calls := 0
	r := testing.Benchmark(func(b *testing.B) {
		calls++
		Propagate(b)
	})
	if calls < 2 {
		t.Fatalf("testing.Benchmark called the body %d times, want at least 2", calls)
	}
	if got := r.Extra["bin_props"]; got != 19998 {
		t.Errorf("bin_props = %v after %d calls (N=%d), want 19998 per solve", got, calls, r.N)
	}
	if r.Extra["props/s"] <= 0 {
		t.Errorf("props/s = %v, want > 0", r.Extra["props/s"])
	}
}
