// emsim-serve is the long-lived EMSim simulation service: it loads (or
// trains) one model at startup and serves simulation and leakage
// assessment over HTTP JSON, with a bounded queue, a fixed worker pool
// of pooled sessions, per-request deadlines, load shedding (429 +
// Retry-After) and graceful drain on SIGTERM.
//
// Endpoints:
//
//	POST   /v1/simulate    {"asm": "...", ...} or {"words": [...]}
//	POST   /v1/tvla        {"key_hex": "...", "fixed_hex": "...", "traces_per_group": N}
//	POST   /v1/train       {"seed": N, "runs": N, ...} -> async job, 202 + job_id
//	GET    /v1/train/{id}  phase-level progress; the model once done
//	DELETE /v1/train/{id}  cancel a running campaign
//	POST   /v1/defend      {"defense": "shuffle", ...} -> async job, 202 + job_id
//	GET    /v1/defend/{id} per-arm trace progress; the security report once done
//	DELETE /v1/defend/{id} cancel a running evaluation
//	GET    /healthz        liveness (503 while draining)
//	GET    /metrics        Prometheus text format: queue depth, in-flight,
//	                       cycles, per-endpoint and per-training-phase
//	                       latency histograms, train/defend job counters,
//	                       and the measurement cache's hits, misses and
//	                       entries
//	GET    /v1/trace       Chrome-trace JSON snapshot of the span ring
//
// With -debug-addr a second loopback-intended listener additionally
// serves net/http/pprof under /debug/pprof/ (plus /metrics and
// /v1/trace, so profiles and scrapes share a port).
//
// Start it with a trained model (emsim-leakage or Model.SaveFile output):
//
//	emsim-serve -model board1.emsim -addr :8080
//
// or let it train a small synthetic-bench model at boot (a few seconds,
// fine for development):
//
//	emsim-serve -addr :8080
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"emsim"
	"emsim/internal/core"
	"emsim/internal/device"
	"emsim/internal/obs"
	"emsim/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		modelPath = flag.String("model", "", "trained model file (empty: train a quick synthetic model at boot)")
		workers   = flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		queue     = flag.Int("queue", 64, "accept queue depth (full queue sheds with 429)")
		maxWords  = flag.Int("max-words", 65536, "largest accepted program, in words")
		maxCycles = flag.Int("max-cycles", 0, "per-run cycle bound (0 = core default)")
		timeout   = flag.Duration("timeout", 30*time.Second, "default per-request simulation deadline")
		maxTO     = flag.Duration("max-timeout", 2*time.Minute, "upper clamp for client-supplied timeouts")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight requests")
		trainJobs = flag.Int("train-jobs", 1, "concurrent /v1/train campaigns (excess jobs queue)")
		trainWkrs = flag.Int("train-workers", 0, "measurement fan-out per training campaign (0 = GOMAXPROCS)")
		trainRuns = flag.Int("train-runs", 200, "largest accepted runs field of a /v1/train request")
		defJobs   = flag.Int("defend-jobs", 1, "concurrent /v1/defend campaigns (excess jobs queue)")
		defWkrs   = flag.Int("defend-workers", 0, "simulation fan-out per defense evaluation (0 = GOMAXPROCS)")
		defTraces = flag.Int("defend-traces", 4096, "largest accepted trace budget of a /v1/defend request")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof (and /metrics, /v1/trace) on this extra address; keep it loopback")
		traceEvts = flag.Int("trace-events", 65536, "span trace ring capacity in events (0 disables recording)")
	)
	flag.Parse()

	if *traceEvts > 0 {
		obs.Enable(*traceEvts)
	}

	model, err := loadOrTrain(*modelPath)
	if err != nil {
		log.Fatalf("emsim-serve: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	cfg := serve.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		MaxProgramWords: *maxWords,
		DefaultTimeout:  *timeout,
		MaxTimeout:      *maxTO,
		MaxTrainJobs:    *trainJobs,
		TrainWorkers:    *trainWkrs,
		MaxTrainRuns:    *trainRuns,
		MaxDefendJobs:   *defJobs,
		DefendWorkers:   *defWkrs,
		MaxDefendTraces: *defTraces,
		// The shutdown signal parents every background campaign, so
		// hours-long training jobs start unwinding at SIGTERM rather
		// than at the end of the HTTP drain window.
		BaseContext: ctx,
	}
	cfg.CPU = emsim.DefaultCPUConfig()
	if *maxCycles > 0 {
		cfg.CPU.MaxCycles = *maxCycles
	}
	srv, err := serve.New(model, cfg)
	if err != nil {
		log.Fatalf("emsim-serve: %v", err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("emsim-serve: listening on %s", *addr)

	var dbgSrv *http.Server
	if *debugAddr != "" {
		dbgSrv = &http.Server{Addr: *debugAddr, Handler: srv.DebugHandler()}
		go func() {
			if err := dbgSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("emsim-serve: debug listener: %v", err)
			}
		}()
		log.Printf("emsim-serve: debug (pprof) listening on %s", *debugAddr)
	}

	select {
	case err := <-errc:
		log.Fatalf("emsim-serve: %v", err)
	case <-ctx.Done():
	}

	// Graceful drain: stop accepting, let in-flight handlers (and so
	// their queued/running simulations) finish, then retire the pool.
	log.Printf("emsim-serve: draining (up to %s)", *drainTO)
	shCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		log.Printf("emsim-serve: shutdown: %v", err)
	}
	if dbgSrv != nil {
		if err := dbgSrv.Shutdown(shCtx); err != nil {
			log.Printf("emsim-serve: debug shutdown: %v", err)
		}
	}
	srv.Close()
	log.Printf("emsim-serve: drained")
}

// loadOrTrain reads a saved model, or trains a small deterministic one
// against the synthetic bench when no path is given.
func loadOrTrain(path string) (*core.Model, error) {
	if path != "" {
		log.Printf("emsim-serve: loading model %s", path)
		return emsim.LoadModelFile(path)
	}
	log.Printf("emsim-serve: no -model given; training a quick synthetic model")
	start := time.Now()
	dev := device.MustNew(device.DefaultOptions())
	m, err := emsim.Train(dev, emsim.TrainOptions{
		Runs:                3,
		InstancesPerCluster: 10,
		MixedPrograms:       2,
		MixedLength:         200,
		Seed:                7,
	})
	if err != nil {
		return nil, err
	}
	log.Printf("emsim-serve: trained in %s", time.Since(start).Round(time.Millisecond))
	return m, nil
}
