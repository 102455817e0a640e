// Command emmserved runs the verification job server: a long-running
// process that accepts netlists (Verilog, BTOR2, AIGER) over HTTP/JSON,
// schedules them onto a bounded solver pool, streams live JSONL progress,
// and memoizes verdicts in a content-addressed cache keyed by the
// post-compile netlist structure and the request's engine configuration.
//
//	emmserved -listen tcp:127.0.0.1:9393
//	emmserved -listen unix:/tmp/emmserved.sock -solvers 4
//
// Netlists are parsed by serve.ParseNetlist, the same format dispatch the
// emmv front end uses locally. Submit with emmv -remote (any input file
// format), emmload, or plain HTTP:
//
//	POST /v1/jobs?wait=1   {"format":"verilog","source":"...","prop":0,
//	                        "spec":{"engine":"bmc3","depth":24}}
//	GET  /v1/jobs/{id}/events   live NDJSON progress
//	GET  /v1/stats              cache hit/miss/warm counters
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"emmver/internal/cliobs"
	"emmver/internal/serve"
)

func main() {
	listen := flag.String("listen", "tcp:127.0.0.1:9393",
		"serve the job API here (unix:/path, tcp:host:port, or a socket path)")
	solvers := flag.Int("solvers", 2, "concurrent verification jobs")
	cacheCap := flag.Int("cache", 1024, "verdict-cache capacity (families)")
	queueDepth := flag.Int("queue", 256, "submission backlog before 503s")
	obsFlags := cliobs.Register()
	flag.Parse()

	observer, obsStop := obsFlags.Setup()
	defer obsStop()

	network, addr := serve.ParseNetAddr(*listen)
	if network == "unix" {
		// A stale socket from a previous run refuses the bind; clear it.
		os.Remove(addr)
	}
	l, err := net.Listen(network, addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	s := serve.New(serve.Config{
		Workers:    *solvers,
		CacheCap:   *cacheCap,
		QueueDepth: *queueDepth,
		Obs:        observer,
	})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "emmserved: shutting down")
		s.Shutdown() // cancels the context, which closes the HTTP server
		if network == "unix" {
			os.Remove(addr)
		}
	}()

	fmt.Printf("emmserved: listening on %s:%s (%d solvers, cache %d)\n",
		network, addr, *solvers, *cacheCap)
	if err := s.Serve(l); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
