// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It generates seeded source text, drives it through the verification
// stack's public entry points, checks every verdict against the answer the
// generator knows by construction, and prints its metrics, the last line
// of standard output being one JSON object:
//
//	perfbench --workload prove-qsort|unsat-emm|serve-ci --seed N --seconds S --trace 0|1
//
// --trace 0 times the workload untraced and reports the end-to-end
// metrics; --trace 1 attaches an in-memory trace to every other job and
// reports the per-layer metrics. README.md
// names every metric and the layer it belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// setupReps is how many times a run builds its inputs anew; setup_s
// is the median.
const setupReps = 9

func main() {
	name := flag.String("workload", "", "workload: prove-qsort, unsat-emm or serve-ci")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 30, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	// A run that hangs must still end, without a result, well inside the
	// harness's limit.
	time.AfterFunc(time.Duration(*seconds)*time.Second+120*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: watchdog expired")
		os.Exit(3)
	})
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var w workload
	switch *name {
	case "prove-qsort":
		w = newProveQsort()
	case "unsat-emm":
		w = newUnsatEMM()
	case "serve-ci":
		w = newServeCI(".bench_build")
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	w.close()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printEnv(*name, *seed)
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("%-28s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, line := range res.notes {
		fmt.Println(line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// result is the final JSON line.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
	notes     []string
}

// printEnv records what the numbers depend on: CPU count, scheduler
// width, toolchain and source revision.
func printEnv(name string, seed int64) {
	rev := os.Getenv("PERFBENCH_REV")
	if rev == "" {
		rev = "unknown"
	}
	fmt.Printf("# workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s rev=%s\n",
		name, seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), rev)
}

func run(w workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
		}
		runtime.GC()
		t0 := time.Now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if err := w.warmup(); err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: metrics{}}
	fail := func(why string) {
		res.Failed++
		if res.Failed <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench: failed:", why)
		}
	}
	tally := func(recs []record) {
		for _, r := range recs {
			res.Attempted++
			if r.failed {
				fail(r.why)
			}
		}
	}
	runtime.GC()
	if !traced {
		mem := startMemSampler(5 * time.Millisecond)
		u0, t0 := readUsage(), time.Now()
		recs := w.loop(t0.Add(dur), false)
		elapsed, u1 := time.Since(t0), readUsage()
		tally(recs)
		for _, err := range w.verify() {
			fail(err.Error())
		}
		endToEnd(res, recs, elapsed, u1.cpu-u0.cpu, median(setups))
		res.Metrics.set("peak_rss_mb", median(mem.jobPeaksMB(recs)), "MB")
		res.notes = append(res.notes, fmt.Sprintf("# process max RSS %.1f MB (getrusage)", float64(u1.maxRSS)/1024))
	} else {
		recs := w.loop(time.Now().Add(dur), true)
		tally(recs)
		for _, err := range w.verify() {
			fail(err.Error())
		}
		var plain, tracedRecs []record
		for _, r := range recs {
			if r.traced {
				tracedRecs = append(tracedRecs, r)
			} else {
				plain = append(plain, r)
			}
		}
		p50u, p50t := median(latencies(plain)), median(latencies(tracedRecs))
		overhead := 0.0
		if p50u > 0 {
			overhead = (p50t/p50u - 1) * 100
		}
		res.Metrics.set("trace_overhead_pct", overhead, "%")
		failed, err := w.layers(res.Metrics)
		if err != nil {
			return nil, err
		}
		for _, err := range failed {
			res.Correct = false
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		res.notes = append(res.notes, fmt.Sprintf("# traced p50 %.2f ms vs untraced %.2f ms over %d/%d jobs",
			p50t, p50u, len(tracedRecs), len(plain)))
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no job completed in %s", dur)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

func latencies(recs []record) []float64 {
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = ms(r.latency)
	}
	return out
}

// endToEnd fills the user-visible metrics of an untraced run. The notes
// carry the ones the JSON line leaves out: the failure share and the tail
// percentile, which is printed only with at least ten samples beyond it.
func endToEnd(res *result, recs []record, elapsed, cpu time.Duration, setupS float64) {
	n := len(recs)
	lat := latencies(recs)
	m := res.Metrics
	m.set("setup_s", setupS, "s")
	m.set("jobs_per_s", float64(n)/elapsed.Seconds(), "1/s")
	m.set("job_p50_ms", median(lat), "ms")
	if n > 0 {
		m.set("cpu_ms_per_job", ms(cpu)/float64(n), "ms")
	}
	res.notes = append(res.notes, fmt.Sprintf("# failed_frac %.4f (%d of %d jobs)", float64(res.Failed)/float64(max(n, 1)), res.Failed, n))
	if n >= 100 {
		res.notes = append(res.notes, fmt.Sprintf("# job_p90_ms %.2f ms (%d samples, %d beyond)", quantile(lat, 0.9), n, n-int(0.9*float64(n))))
	} else {
		res.notes = append(res.notes, fmt.Sprintf("# job_p90_ms not reported: %d samples, fewer than 10 beyond it", n))
	}
	byClass := map[string][]float64{}
	for _, r := range recs {
		byClass[r.class] = append(byClass[r.class], ms(r.latency))
	}
	for _, c := range sortedKeys(byClass) {
		res.notes = append(res.notes, fmt.Sprintf("# class %-6s n=%-4d p50 %.2f ms", c, len(byClass[c]), median(byClass[c])))
	}
}
