// Command emmload load-tests an emmserved job server with bursts of
// duplicate and near-duplicate verification requests, and reports the
// cache hit rates and request latencies the serving layer achieves:
//
//	emmload                      # self-hosts a server on a unix socket
//	emmload -addr tcp:host:9393  # drives an external server
//	emmload -burst 100 -depth 16
//
// The workload replays what a CI fleet does to a verification service:
//
//	cold    one first-sight solve of the growth design (fills the cache)
//	dup     a burst of byte-identical resubmissions (exact cache hits)
//	near    a burst of decoy-salted variants of the same problem — extra
//	        logic the compile pipeline removes — landing on the same
//	        content-addressed family (post-pass cache hits)
//	warm    a double-depth resubmission that must warm-start from the
//	        cached NO_CE frontier instead of re-checking the prefix
//	jobs    a sequential (Jobs: 1) burst (a performance field, so exact
//	        hits) and a deeper Jobs: 1 request warm-started from the frontier
//	ce      a counter-example design submitted twice; the duplicate must
//	        return the identical witness from the cache
//
// Every phase cross-checks verdict parity against the cold run before
// reporting, so a hit-rate number can never paper over a wrong answer.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"time"

	"emmver/internal/btor2"
	"emmver/internal/exp"
	"emmver/internal/serve"
	"emmver/internal/spec"
)

const counterSrc = `
module counter(input clk, input en, input rst);
  reg [3:0] cnt;
  always @(posedge clk) begin
    if (rst) cnt <= 4'd0;
    else if (en) cnt <= cnt + 4'd1;
  end
  assert(cnt != 4'd9, "never9");
endmodule`

func main() {
	addr := flag.String("addr", "", "emmserved address; empty self-hosts one on a unix socket")
	burst := flag.Int("burst", 50, "requests per duplicate/near-duplicate burst")
	depth := flag.Int("depth", 12, "analysis depth of the base request")
	solvers := flag.Int("solvers", 2, "worker pool of the self-hosted server")
	flag.Parse()

	target := *addr
	if target == "" {
		sock := filepath.Join(os.TempDir(), fmt.Sprintf("emmload-%d.sock", os.Getpid()))
		os.Remove(sock)
		l, err := net.Listen("unix", sock)
		if err != nil {
			fatal(err)
		}
		s := serve.New(serve.Config{Workers: *solvers})
		go s.Serve(l)
		defer func() {
			s.Shutdown()
			os.Remove(sock)
		}()
		target = "unix:" + sock
		fmt.Printf("self-hosted emmserved on %s (%d solvers)\n\n", sock, *solvers)
	}
	cl := serve.NewClient(target)
	if err := cl.Healthy(5 * time.Second); err != nil {
		fatal(err)
	}

	growth := func(decoys int) string {
		cfg := exp.DefaultGrowthSolve()
		cfg.AW, cfg.DW = 4, 8
		cfg.Decoys = decoys
		var buf bytes.Buffer
		if err := btor2.Write(&buf, exp.GrowthSolveNetlist(cfg)); err != nil {
			fatal(err)
		}
		return buf.String()
	}
	baseReq := func() serve.Request {
		return serve.Request{Format: "btor2", Source: growth(0), Prop: 0,
			Spec: spec.Spec{Engine: spec.EngineBMC2, Depth: *depth}}
	}

	type phase struct {
		name            string
		requests        int
		hits            int
		warmed          int
		lats            []time.Duration
		note            string
		parityViolation string
	}
	var phases []*phase
	run := func(p *phase, req serve.Request, check func(*serve.JobStatus) string) {
		t0 := time.Now()
		st, err := cl.Submit(req, true)
		if err != nil {
			fatal(err)
		}
		p.lats = append(p.lats, time.Since(t0))
		p.requests++
		if st.Cached {
			p.hits++
		}
		if st.WarmStart > 0 {
			p.warmed++
		}
		if p.parityViolation == "" && check != nil {
			p.parityViolation = check(st)
		}
	}

	// cold: first sight, must actually solve.
	cold := &phase{name: "cold", note: "first-sight solve"}
	var coldVerdict *serve.Verdict
	run(cold, baseReq(), func(st *serve.JobStatus) string {
		coldVerdict = st.Verdict
		if st.Cached || st.Verdict == nil || st.Verdict.Kind != "NO_CE" {
			return fmt.Sprintf("cold run: cached=%v verdict=%+v", st.Cached, st.Verdict)
		}
		return ""
	})
	phases = append(phases, cold)

	sameVerdict := func(st *serve.JobStatus, wantCached bool) string {
		if st.Verdict == nil || st.Verdict.Kind != coldVerdict.Kind || st.Verdict.Depth != coldVerdict.Depth {
			return fmt.Sprintf("verdict drifted: %+v (cold %+v)", st.Verdict, coldVerdict)
		}
		if wantCached && !st.Cached {
			return fmt.Sprintf("job %s was re-solved", st.ID)
		}
		return ""
	}

	// dup: byte-identical resubmissions.
	dup := &phase{name: "dup", note: "byte-identical burst"}
	for i := 0; i < *burst; i++ {
		run(dup, baseReq(), func(st *serve.JobStatus) string { return sameVerdict(st, true) })
	}
	phases = append(phases, dup)

	// near: decoy-salted variants, isomorphic after the compile pipeline.
	near := &phase{name: "near", note: "decoy-salted burst"}
	for i := 0; i < *burst; i++ {
		req := baseReq()
		req.Source = growth(1 + i%3)
		run(near, req, func(st *serve.JobStatus) string { return sameVerdict(st, true) })
	}
	phases = append(phases, near)

	// warm: double depth; the NO_CE frontier must seed the deeper run.
	warm := &phase{name: "warm", note: "double-depth resubmission"}
	wreq := baseReq()
	wreq.Spec.Depth = 2 * *depth
	run(warm, wreq, func(st *serve.JobStatus) string {
		if st.Cached {
			return "deeper request claimed a full hit"
		}
		if st.WarmStart != *depth+1 {
			return fmt.Sprintf("warm start at %d, want %d", st.WarmStart, *depth+1)
		}
		if st.Verdict == nil || st.Verdict.Kind != "NO_CE" || st.Verdict.Depth != 2**depth {
			return fmt.Sprintf("warm verdict: %+v", st.Verdict)
		}
		return ""
	})
	phases = append(phases, warm)

	// jobs: the same problem with a sequential worker count. The
	// performance field is excluded from the cache keys, so the burst must
	// land as exact hits on the verdict solved at the default count; the
	// deeper tail request then actually solves at Jobs: 1 on the server,
	// warm-started from the cached frontier.
	js := &phase{name: "jobs", note: "jobs=1 burst + deeper jobs=1 solve"}
	for i := 0; i < *burst; i++ {
		req := baseReq()
		req.Spec.Jobs = 1
		run(js, req, func(st *serve.JobStatus) string { return sameVerdict(st, true) })
	}
	jreq := baseReq()
	jreq.Spec.Jobs = 1
	jreq.Spec.Depth = 2**depth + 4
	run(js, jreq, func(st *serve.JobStatus) string {
		if st.Cached {
			return "deeper jobs=1 request claimed a full hit"
		}
		if st.WarmStart != 2**depth+1 {
			return fmt.Sprintf("jobs=1 warm start at %d, want %d", st.WarmStart, 2**depth+1)
		}
		if st.Verdict == nil || st.Verdict.Kind != "NO_CE" || st.Verdict.Depth != 2**depth+4 {
			return fmt.Sprintf("jobs=1 verdict: %+v", st.Verdict)
		}
		return ""
	})
	phases = append(phases, js)

	// ce: witness-bearing duplicate.
	ce := &phase{name: "ce", note: "counter-example + identical witness"}
	ceReq := serve.Request{Format: "verilog", Source: counterSrc, Prop: 0,
		Spec: spec.Spec{Engine: spec.EngineBMC3, Depth: 15}}
	var firstCE *serve.Verdict
	run(ce, ceReq, func(st *serve.JobStatus) string {
		firstCE = st.Verdict
		if st.Verdict == nil || st.Verdict.Kind != "CE" || st.Verdict.Witness == nil {
			return fmt.Sprintf("ce seed: %+v", st.Verdict)
		}
		return ""
	})
	run(ce, ceReq, func(st *serve.JobStatus) string {
		if !st.Cached || st.Verdict == nil || st.Verdict.Kind != "CE" {
			return fmt.Sprintf("ce duplicate re-solved: %+v", st)
		}
		if !reflect.DeepEqual(st.Verdict.Witness, firstCE.Witness) {
			return "cached witness differs from the solved one"
		}
		return ""
	})
	phases = append(phases, ce)

	fmt.Println("| phase | note | requests | cache hits | hit rate | warm starts | p50 | p95 |")
	fmt.Println("|-------|------|---------:|-----------:|---------:|------------:|----:|----:|")
	ok := true
	for _, p := range phases {
		fmt.Printf("| %s | %s | %d | %d | %.0f%% | %d | %s | %s |\n",
			p.name, p.note, p.requests, p.hits,
			100*float64(p.hits)/float64(p.requests), p.warmed,
			quantile(p.lats, 0.50), quantile(p.lats, 0.95))
		if p.parityViolation != "" {
			ok = false
			fmt.Fprintf(os.Stderr, "PARITY VIOLATION [%s]: %s\n", p.name, p.parityViolation)
		}
	}
	if stats, err := cl.Stats(); err == nil {
		fmt.Printf("\nserver: cache=%s queued=%s\n", stats["cache"], stats["queued"])
	}
	if !ok {
		os.Exit(1)
	}
	fmt.Println("verdict parity: all phases consistent with the cold run")
}

func quantile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return s[idx].Round(10 * time.Microsecond)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
