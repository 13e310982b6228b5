package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"

	"emsim/internal/core"
	"emsim/internal/device"
	"emsim/internal/obs"
)

// spanTrainJob covers one training campaign's execution (slot acquired
// to model serialized), on a lane claimed per job.
var spanTrainJob = obs.RegisterSpan("serve.train-job")

// This file is the asynchronous training surface: POST /v1/train submits
// a campaign against a fresh synthetic device and returns a job ID;
// GET /v1/train/{id} reports phase-level progress (fed by the Trainer's
// progress callback) and, once done, the fitted model; DELETE cancels.
// Every campaign shares the server's measurement cache, making a
// re-submitted campaign against the same device configuration mostly
// cache hits.

// trainRequest is the POST /v1/train body. Zero-valued campaign fields
// take the core.TrainOptions defaults; zero-valued device fields take
// the default bench.
type trainRequest struct {
	Seed                int64 `json:"seed"`
	Runs                int   `json:"runs"`
	InstancesPerCluster int   `json:"instances_per_cluster"`
	MixedPrograms       int   `json:"mixed_programs"`
	MixedLength         int   `json:"mixed_length"`
	// Workers overrides the server's per-campaign fan-out width.
	Workers int `json:"workers"`
	// TechSeed / NoiseSeed select the synthetic board instance.
	TechSeed  int64 `json:"tech_seed"`
	NoiseSeed int64 `json:"noise_seed"`
}

// trainStatus is the wire form of a job snapshot.
type trainStatus struct {
	ID        string          `json:"job_id"`
	State     string          `json:"state"`
	Phase     string          `json:"phase,omitempty"`
	Done      int             `json:"done"`
	Total     int             `json:"total"`
	ElapsedMS int64           `json:"elapsed_ms"`
	Error     string          `json:"error,omitempty"`
	Model     json.RawMessage `json:"model,omitempty"`
}

// trainProgress is a training job's visible progress: the phase being
// measured and its completed and total measurement counts.
type trainProgress struct {
	phase       core.Phase
	done, total int
}

// observe applies one Trainer progress event. Campaign workers deliver
// events concurrently and completion counts may arrive out of order
// within a phase, so a stale event (a lower Done for the phase already
// shown) is dropped to keep the visible counter monotonic.
func (p *trainProgress) observe(e core.Progress) {
	switch {
	case e.Phase != p.phase:
		p.phase, p.done, p.total = e.Phase, e.Done, e.Total
	case e.Done > p.done:
		p.done, p.total = e.Done, e.Total
	}
}

// observeTrain is the Trainer progress callback of job j.
func observeTrain(j *asyncJob[trainProgress], e core.Progress) {
	j.mu.Lock()
	j.progress.observe(e)
	j.mu.Unlock()
}

// trainStatusOf renders a training job for the wire, including the
// model only when asked (the submit and cancel responses skip the
// multi-kilobyte payload).
func trainStatusOf(v jobView[trainProgress], withModel bool) any {
	st := trainStatus{
		ID:        v.id,
		State:     v.state,
		Done:      v.progress.done,
		Total:     v.progress.total,
		ElapsedMS: v.elapsedMS,
		Error:     v.err,
	}
	if v.state != jobQueued {
		st.Phase = v.progress.phase.String()
	}
	if withModel && v.state == jobDone {
		st.Model = json.RawMessage(v.result)
	}
	return st
}

// runTrain executes one campaign: build the device and trainer, run
// it, record the phase timings and serialize the fitted model.
func (s *Server) runTrain(ctx context.Context, opts core.TrainOptions, devOpts device.Options) ([]byte, error) {
	dev, err := device.New(devOpts)
	if err != nil {
		return nil, err
	}
	t, err := core.NewTrainer(dev, opts)
	if err != nil {
		return nil, err
	}
	m, err := t.Run(ctx)
	for p, d := range t.PhaseTimings() {
		if d > 0 {
			s.met.observePhase(p, d)
		}
	}
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ---- HTTP handlers ----

func (s *Server) handleTrainSubmit(w http.ResponseWriter, r *http.Request) {
	var req trainRequest
	if status, err := s.decodeRequest(w, r, &req); status != 0 {
		writeError(w, status, "decode: %v", err)
		return
	}
	if req.Seed < 0 || req.Runs < 0 || req.InstancesPerCluster < 0 ||
		req.MixedPrograms < 0 || req.MixedLength < 0 || req.Workers < 0 {
		writeError(w, http.StatusBadRequest, "campaign fields must be non-negative")
		return
	}
	if req.Runs > s.cfg.MaxTrainRuns {
		writeError(w, http.StatusBadRequest, "runs %d exceeds limit %d", req.Runs, s.cfg.MaxTrainRuns)
		return
	}
	if req.MixedPrograms > 64 {
		writeError(w, http.StatusBadRequest, "mixed programs %d exceeds limit 64", req.MixedPrograms)
		return
	}

	opts := core.TrainOptions{
		Seed:                req.Seed,
		Runs:                req.Runs,
		InstancesPerCluster: req.InstancesPerCluster,
		MixedPrograms:       req.MixedPrograms,
		MixedLength:         req.MixedLength,
		Workers:             req.Workers,
	}
	if opts.Workers == 0 {
		opts.Workers = s.cfg.TrainWorkers
	}
	if err := opts.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	devOpts := device.DefaultOptions()
	devOpts.CPU = s.cfg.CPU
	if req.TechSeed != 0 {
		devOpts.TechSeed = req.TechSeed
	}
	if req.NoiseSeed != 0 {
		devOpts.NoiseSeed = req.NoiseSeed
	}

	j, err := s.trains.submit(func(ctx context.Context, j *asyncJob[trainProgress]) ([]byte, error) {
		opts.Progress = func(e core.Progress) { observeTrain(j, e) }
		opts.Cache = s.cache
		return s.runTrain(ctx, opts, devOpts)
	})
	if err != nil {
		s.shed(w, err)
		return
	}
	s.trains.writeStatus(w, http.StatusAccepted, j, false)
}
