package serve

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"emmver/internal/aig"
	"emmver/internal/aiger"
	"emmver/internal/bmc"
	"emmver/internal/btor2"
	"emmver/internal/obs"
	"emmver/internal/pass"
	"emmver/internal/spec"
	"emmver/internal/verilog"
)

// Request is one verification submission: a netlist in any of the
// supported source formats plus the request Spec. Binary formats (AIGER's
// binary mode) travel in SourceB64; everything else fits in Source.
type Request struct {
	Format    string            `json:"format"`               // verilog, btor2, or aiger
	Source    string            `json:"source,omitempty"`     // source text
	SourceB64 string            `json:"source_b64,omitempty"` // base64 alternative for binary formats
	Top       string            `json:"top,omitempty"`        // verilog top module (default: last)
	Params    map[string]uint64 `json:"params,omitempty"`     // verilog parameter overrides
	Prop      int               `json:"prop"`                 // property index within the design
	Spec      spec.Spec         `json:"spec"`                 // engine configuration
}

// JobStatus is the wire representation of a job.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // queued, running, done, failed
	// Cached is true when the verdict came from the cache with no solver
	// work at all.
	Cached bool `json:"cached"`
	// WarmStart is the depth the run's per-depth checks began at (0 =
	// cold) when a shallower cached frontier pre-answered the prefix.
	WarmStart int      `json:"warm_start,omitempty"`
	Verdict   *Verdict `json:"verdict,omitempty"`
	Error     string   `json:"error,omitempty"`
	// Key is the exact content-addressed identity (netlist × spec × depth);
	// Family is the depth-independent bucket verdicts transfer within.
	Key    string `json:"key"`
	Family string `json:"family"`
}

// Config parameterizes a Server.
type Config struct {
	// Workers bounds the solving pool (0 = NumCPU via par.Jobs semantics
	// downstream; each job additionally fans out per its own Spec.Jobs).
	Workers int
	// CacheCap bounds the verdict cache (families; 0 = default 1024).
	CacheCap int
	// QueueDepth bounds the backlog (0 = default 256); submissions beyond
	// it are rejected with 503.
	QueueDepth int
	// Obs receives server-lifecycle events (job accepted/finished).
	Obs *obs.Observer
}

// A job holds its request's source, parsed netlist and compiled model only
// while it is queued or running; finish releases them, so a finished job
// keeps just what status and /events serve: the verdict, the keys and the
// journal bytes.
type job struct {
	id        string
	req       Request
	netlist   *aig.Netlist
	compiled  *pass.Compiled // netlist compiled for req.Prop under req.Spec's passes
	depth     int
	familyID  string
	problemID string
	key       string
	sourceKey string
	log       *eventLog
	obs       *obs.Observer // writes the job's journal into log; nil once finished
	done      chan struct{}

	mu        sync.Mutex
	state     string
	cached    bool
	warmStart int
	verdict   *Verdict
	err       string
}

// Server is the verification job server. Create with New, expose with
// Handler or Serve, stop with Shutdown.
type Server struct {
	cfg   Config
	cache *Cache
	queue chan *job

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// runEngine runs one job's engine from its submit-time compile. It is
	// spec.Spec.RunCompiledCtx; tests replace it to inject engine faults.
	runEngine func(spec.Spec, context.Context, *aig.Netlist, *pass.Compiled, int, int, func(*bmc.Options)) (*bmc.Result, error)
	panics    atomic.Int64 // engine panics recovered into failed jobs

	mu     sync.Mutex
	jobs   map[string]*job
	byKey  map[string]*job // in-flight dedup: key+sourceKey → newest job
	seq    int
	closed bool
}

// New starts a server's worker pool and returns it.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		cache:     NewCache(cfg.CacheCap),
		queue:     make(chan *job, cfg.QueueDepth),
		ctx:       ctx,
		cancel:    cancel,
		runEngine: spec.Spec.RunCompiledCtx,
		jobs:      make(map[string]*job),
		byKey:     make(map[string]*job),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}
	return s
}

// Cache exposes the verdict cache (tests and the stats endpoint).
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// Shutdown stops accepting jobs, cancels running ones, and waits for the
// pool to drain.
func (s *Server) Shutdown() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.cancel()
	close(s.queue)
	s.wg.Wait()
}

// Handler returns the HTTP API:
//
//	POST /v1/jobs            submit (Request JSON; ?wait=1 blocks until done)
//	GET  /v1/jobs/{id}       job status (?wait=1 blocks until done)
//	GET  /v1/jobs/{id}/events  live JSONL progress stream (NDJSON)
//	GET  /v1/stats           cache + queue counters
//	GET  /healthz            liveness
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/jobs", s.handleSubmit)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return mux
}

// Serve runs the HTTP API on l until Shutdown (or a listener error).
func (s *Server) Serve(l net.Listener) error {
	srv := &http.Server{Handler: s.Handler()}
	go func() {
		<-s.ctx.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()
	err := srv.Serve(l)
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req Request
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err == nil {
		req, err = decodeRequest(body)
	}
	if err != nil {
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	j, status, err := s.submit(req)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	if r.URL.Query().Get("wait") == "1" {
		select {
		case <-j.done:
		case <-r.Context().Done():
		case <-s.ctx.Done():
		}
	}
	writeJSON(w, j.status())
}

// decodeRequest parses a submission strictly: a field this build does not
// know — a misspelling, or a knob it no longer has — is an error naming the
// field, never a silently dropped setting.
func decodeRequest(body []byte) (Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return req, fmt.Errorf("trailing data after the request object")
	}
	return req, nil
}

// submit validates, keys, and either answers from cache or enqueues.
func (s *Server) submit(req Request) (*job, int, error) {
	if err := req.Spec.Validate(); err != nil {
		return nil, http.StatusBadRequest, err
	}
	raw, err := req.sourceBytes()
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	// The job's journal opens before the parse, so it also explains the
	// submit-time parse and compile. A submission that fails, or attaches
	// to an in-flight duplicate, drops it.
	events := newEventLog()
	ob := newJobObserver(events)
	sp := ob.Span("frontend.parse", obs.F("format", req.Format), obs.F("bytes", len(raw)))
	n, err := ParseNetlist(req.Format, raw, req.Top, req.Params)
	sp.End()
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("parse %s: %w", req.Format, err)
	}
	if req.Prop < 0 || req.Prop >= len(n.Props) {
		return nil, http.StatusBadRequest,
			fmt.Errorf("property %d out of range (design has %d)", req.Prop, len(n.Props))
	}
	canon := req.Spec.Canonical()
	// The key hashes the compiled netlist, and the job hands this same
	// compile to the engine, so a served job compiles exactly once.
	compiled, err := pass.Compile(n, []int{req.Prop}, pass.Options{Spec: canon.Passes, Obs: ob})
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	netKey := NetlistKey(compiled.N, compiled.Props)
	famID := FamilyID(netKey, req.Spec)
	probID := ProblemID(netKey, req.Spec)
	srcKey := SourceKey(req.Format, req.Top, req.Params, req.Prop, raw)
	key := famID + fmt.Sprintf(":d%d", canon.Depth)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, http.StatusServiceUnavailable, fmt.Errorf("server shutting down")
	}
	// Identical in-flight submission (same content, same source): attach
	// to the running job instead of queuing a duplicate. Completed jobs
	// are not reused — their verdicts are served through the cache below,
	// which keeps the hit accounting honest.
	if prev := s.byKey[key+":"+srcKey]; prev != nil {
		if st := prev.status(); st.State == "queued" || st.State == "running" {
			s.mu.Unlock()
			return prev, http.StatusOK, nil
		}
	}
	s.seq++
	j := &job{
		id:        fmt.Sprintf("j%d", s.seq),
		req:       req,
		netlist:   n,
		compiled:  compiled,
		depth:     canon.Depth,
		familyID:  famID,
		problemID: probID,
		key:       key,
		sourceKey: srcKey,
		log:       events,
		obs:       ob,
		done:      make(chan struct{}),
		state:     "queued",
	}
	s.jobs[j.id] = j
	s.byKey[key+":"+srcKey] = j
	s.mu.Unlock()
	s.cfg.Obs.Point("serve.submit", obs.F("job", j.id), obs.F("family", famID[:16]))

	if hit := s.cache.Lookup(famID, probID, canon.Depth, srcKey); hit != nil && hit.Exact {
		j.finish(hit.Verdict, true, 0, "")
		return j, http.StatusOK, nil
	}
	select {
	case s.queue <- j:
	default:
		j.finish(nil, false, 0, "queue full")
		s.mu.Lock()
		delete(s.byKey, key+":"+srcKey)
		s.mu.Unlock()
		return nil, http.StatusServiceUnavailable, fmt.Errorf("queue full (%d jobs)", s.cfg.QueueDepth)
	}
	return j, http.StatusAccepted, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	switch sub {
	case "":
		if r.URL.Query().Get("wait") == "1" {
			select {
			case <-j.done:
			case <-r.Context().Done():
			case <-s.ctx.Done():
			}
		}
		writeJSON(w, j.status())
	case "events":
		s.streamEvents(w, r, j)
	default:
		http.Error(w, "unknown subresource", http.StatusNotFound)
	}
}

// streamEvents tails the job's JSONL log as NDJSON until the job is done
// or the client hangs up.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request, j *job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	off := 0
	for {
		chunk, next, done := j.log.Next(off)
		if len(chunk) > 0 {
			if _, err := w.Write(chunk); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
		off = next
		if done {
			return
		}
		select {
		case <-r.Context().Done():
			return
		default:
		}
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	jobs := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, map[string]any{
		"cache":   s.cache.Stats(),
		"jobs":    jobs,
		"queued":  len(s.queue),
		"workers": s.cfg.Workers,
		// Engine panics recovered into failed jobs (see solve).
		"serve.panics": s.panics.Load(),
	})
}

func (s *Server) worker(slot int) {
	defer s.wg.Done()
	for j := range s.queue {
		s.run(slot, j)
	}
}

func (s *Server) run(slot int, j *job) {
	j.setState("running")
	// A duplicate may have populated the cache between submit and now.
	// Peek: this request was already accounted at submit time.
	warmFrom := 0
	if hit := s.cache.Peek(j.familyID, j.problemID, j.depth, j.sourceKey); hit != nil {
		if hit.Exact {
			j.finish(hit.Verdict, true, 0, "")
			return
		}
		if j.req.Spec.WarmEligible() {
			warmFrom = hit.WarmFrom
		}
	}
	sp := j.obs.Span("serve.job",
		obs.F("job", j.id), obs.F("worker", slot),
		obs.F("engine", j.req.Spec.Canonical().Engine),
		obs.F("depth", j.depth), obs.F("warm_from", warmFrom))
	res, err := s.solve(j, warmFrom)
	sp.End()
	j.log.CloseLog()
	if err != nil {
		j.finish(nil, false, warmFrom, err.Error())
		return
	}
	v := verdictOf(res, j.sourceKey)
	s.cache.Store(j.familyID, j.problemID, v)
	j.finish(v, false, warmFrom, "")
	s.cfg.Obs.Point("serve.done", obs.F("job", j.id), obs.F("kind", v.Kind))
}

// solve runs the job's engine. A panic anywhere in it — including the
// exactness panics the lazy EMM refinement raises on purpose — becomes
// this job's error, stack included, so the worker and every queued job
// survive it.
func (s *Server) solve(j *job, warmFrom int) (res *bmc.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			res, err = nil, fmt.Errorf("engine panic: %v\n%s", r, debug.Stack())
		}
	}()
	return s.runEngine(j.req.Spec, s.ctx, j.netlist, j.compiled, j.req.Prop, warmFrom, func(o *bmc.Options) {
		o.Obs = j.obs
		o.ValidateWitness = true
	})
}

func (j *job) setState(st string) {
	j.mu.Lock()
	j.state = st
	j.mu.Unlock()
}

func (j *job) finish(v *Verdict, cached bool, warm int, errMsg string) {
	j.mu.Lock()
	if j.state == "done" || j.state == "failed" {
		j.mu.Unlock()
		return
	}
	j.verdict = v
	j.cached = cached
	j.warmStart = warm
	// The journal is complete: drop its encoder and buffer, and what only
	// the run needed — the source text, the netlist and its compile —
	// which the server would otherwise keep for as long as it keeps the
	// job.
	j.obs = nil
	j.req.Source, j.req.SourceB64 = "", ""
	j.netlist, j.compiled = nil, nil
	if errMsg != "" {
		j.state = "failed"
		j.err = errMsg
	} else {
		j.state = "done"
	}
	j.mu.Unlock()
	j.log.CloseLog()
	close(j.done)
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JobStatus{
		ID:        j.id,
		State:     j.state,
		Cached:    j.cached,
		WarmStart: j.warmStart,
		Verdict:   j.verdict,
		Error:     j.err,
		Key:       j.key,
		Family:    j.familyID,
	}
}

func (r *Request) sourceBytes() ([]byte, error) {
	switch {
	case r.Source != "" && r.SourceB64 != "":
		return nil, fmt.Errorf("source and source_b64 are mutually exclusive")
	case r.SourceB64 != "":
		return base64.StdEncoding.DecodeString(r.SourceB64)
	case r.Source != "":
		return []byte(r.Source), nil
	}
	return nil, fmt.Errorf("empty source")
}

// ParseNetlist parses src in the named format ("verilog", "btor2", or
// "aiger", case-insensitive) into a netlist. It is the one format → parser
// dispatch: the job server and the emmv front end both call it. top and
// params apply to Verilog only (top "" selects the last module).
func ParseNetlist(format string, src []byte, top string, params map[string]uint64) (*aig.Netlist, error) {
	switch strings.ToLower(format) {
	case "verilog":
		file, err := verilog.Parse(string(src))
		if err != nil {
			return nil, err
		}
		if top == "" && len(file.Modules) > 0 {
			top = file.Modules[len(file.Modules)-1].Name
		}
		return verilog.ElaborateWithParams(file, top, params)
	case "btor2":
		return btor2.Read(bytes.NewReader(src))
	case "aiger":
		return aiger.Read(bytes.NewReader(src))
	default:
		return nil, fmt.Errorf("unknown format %q (want verilog, btor2, or aiger)", format)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
