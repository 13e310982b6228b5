// Package serve is the long-lived simulation service behind
// cmd/emsim-serve: a stdlib-only HTTP JSON layer over the streaming
// core.Session pipeline. One trained model is loaded once; requests are
// executed by a fixed pool of workers, each owning one reusable Session,
// fed from a bounded queue. When the queue is full the service sheds
// load with 429 + Retry-After instead of queueing unboundedly, and
// per-request contexts (client disconnect, per-request deadline, server
// drain) cancel in-flight simulations within cpu.CtxCheckInterval
// cycles via the context check in the core's cycle loop.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"emsim/internal/core"
	"emsim/internal/cpu"
	"emsim/internal/obs"
)

// spanDrain covers Server.Close's full drain (scheduler + registries).
var spanDrain = obs.RegisterSpan("serve.drain")

// Config tunes the service. The zero value serves with sensible
// defaults; see each field.
type Config struct {
	// CPU is the core configuration the pooled sessions simulate with.
	// The zero value selects cpu.DefaultConfig.
	CPU cpu.Config
	// Workers is the session pool size (and so the simulation
	// concurrency). Default: GOMAXPROCS.
	Workers int
	// QueueDepth bounds the accept queue; a request arriving with the
	// queue full is shed with 429. Default 64.
	QueueDepth int
	// MaxProgramWords caps the program size a request may submit;
	// larger programs are rejected with 413. Default 65536.
	MaxProgramWords int
	// MaxRequestBytes caps the request body size. Default 8 MiB.
	MaxRequestBytes int64
	// DefaultTimeout bounds a request that names no timeout_ms;
	// MaxTimeout clamps one that does. Defaults 30s / 120s.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxTrainJobs bounds how many /v1/train campaigns run concurrently;
	// excess jobs queue inside the registry. Default 1 (training is
	// internally parallel already).
	MaxTrainJobs int
	// TrainWorkers is the measurement fan-out width of each training
	// campaign; 0 means GOMAXPROCS.
	TrainWorkers int
	// MaxTrainRuns caps the runs field of a /v1/train request.
	// Default 200.
	MaxTrainRuns int
	// MaxDefendJobs bounds how many /v1/defend campaigns run
	// concurrently; excess jobs queue inside the registry. Default 1
	// (an evaluation is internally parallel already).
	MaxDefendJobs int
	// DefendWorkers is the simulation fan-out width of each defense
	// evaluation; 0 means GOMAXPROCS.
	DefendWorkers int
	// MaxDefendTraces caps the tvla_traces and cpa_traces fields of a
	// /v1/defend request. Default 4096.
	MaxDefendTraces int
	// BaseContext, when non-nil, is the parent of every background job
	// context (training and defense campaigns): cancelling it cancels
	// all live jobs, in addition to the per-job DELETE route and
	// Server.Close. Nil means context.Background. Analogous to
	// http.Server.BaseContext.
	BaseContext context.Context
}

func (c Config) withDefaults() Config {
	if c.CPU == (cpu.Config{}) {
		c.CPU = cpu.DefaultConfig()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxProgramWords <= 0 {
		c.MaxProgramWords = 65536
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 8 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 120 * time.Second
	}
	if c.MaxTrainJobs <= 0 {
		c.MaxTrainJobs = 1
	}
	if c.MaxTrainRuns <= 0 {
		c.MaxTrainRuns = 200
	}
	if c.MaxDefendJobs <= 0 {
		c.MaxDefendJobs = 1
	}
	if c.MaxDefendTraces <= 0 {
		c.MaxDefendTraces = 4096
	}
	if c.BaseContext == nil {
		//emsim:ignore ctxflow the zero Config falls back to a background base deliberately, mirroring http.Server.BaseContext
		c.BaseContext = context.Background()
	}
	return c
}

// Server is the HTTP simulation service. Build one with New, mount
// Handler on an http.Server, and Close it (after http.Server.Shutdown)
// to drain the worker pool.
type Server struct {
	model   *core.Model
	cfg     Config
	sched   *scheduler
	met     *metrics
	cache   *core.MeasurementCache // shared by every /v1/train campaign
	trains  *jobs[trainProgress]
	defends *jobs[defendProgress]
	mux     *http.ServeMux
}

// New builds the service: the session pool spins up eagerly so an
// invalid model/config fails here rather than on the first request.
func New(m *core.Model, cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	phases := make([]string, core.NumPhases)
	for p := 0; p < core.NumPhases; p++ {
		phases[p] = core.Phase(p).String()
	}
	met := newMetrics(phases)
	sched, err := newScheduler(m, cfg.CPU, cfg.Workers, cfg.QueueDepth, met)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		model:   m,
		cfg:     cfg,
		sched:   sched,
		met:     met,
		cache:   core.NewMeasurementCache(),
		trains:  newJobs("train", "training", spanTrainJob, cfg.BaseContext, cfg.MaxTrainJobs, met.trains, trainStatusOf),
		defends: newJobs("defend", "defense-evaluation", spanDefendJob, cfg.BaseContext, cfg.MaxDefendJobs, met.defends, defendStatusOf),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("POST /v1/tvla", s.handleTVLA)
	s.mux.HandleFunc("POST /v1/train", s.handleTrainSubmit)
	s.mux.HandleFunc("GET /v1/train/{id}", s.trains.handleStatus)
	s.mux.HandleFunc("DELETE /v1/train/{id}", s.trains.handleCancel)
	s.mux.HandleFunc("POST /v1/defend", s.handleDefendSubmit)
	s.mux.HandleFunc("GET /v1/defend/{id}", s.defends.handleStatus)
	s.mux.HandleFunc("DELETE /v1/defend/{id}", s.defends.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/trace", s.handleTrace)
	return s, nil
}

// Handler returns the service's route tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Close drains the worker pool and the job registries: no new jobs are
// accepted, every queued or in-flight simulation completes (cancelled
// jobs complete within one context-check interval), and every live
// training or defense campaign is cancelled and waited out. Call it
// after http.Server.Shutdown so late handlers see errDraining instead
// of a send on a closed queue.
func (s *Server) Close() {
	obs.Begin(spanDrain, 0)
	defer obs.End(spanDrain, 0)
	s.sched.drain()
	s.trains.drain()
	s.defends.drain()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.sched.draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleMetrics renders the per-server registry in Prometheus text
// exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.met.writePrometheus(w, s.cache.Stats())
}

// handleTrace serves a Chrome-trace JSON snapshot of the span ring.
// Recording is process-global and off by default; cmd/emsim-serve
// enables it (see -trace-events), so a snapshot taken without it is an
// empty — but well-formed — trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="emsim-trace.json"`)
	_ = obs.WriteChromeTrace(w, obs.Snapshot())
}

// writeJSON serializes one response value; encoding errors at this point
// can only be delivered as a broken connection, so they are ignored.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// retryAfter is the hint returned with 429 responses.
const retryAfter = time.Second

// shed maps a submit failure to its HTTP response.
func (s *Server) shed(w http.ResponseWriter, err error) {
	switch err {
	case errQueueFull:
		secs := int(retryAfter / time.Second)
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeError(w, http.StatusTooManyRequests, "simulation queue full; retry after %ds", secs)
	case errDraining:
		writeError(w, http.StatusServiceUnavailable, "server draining")
	default:
		writeError(w, http.StatusInternalServerError, "submit: %v", err)
	}
}

// requestTimeout resolves a request's effective deadline from its
// optional timeout_ms field, clamped to the configured maximum.
func (s *Server) requestTimeout(timeoutMS int64) time.Duration {
	d := s.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d
}
