package serve

import (
	"context"
	"encoding/json"
	"net/http"

	"emsim/internal/defend"
	"emsim/internal/obs"
)

// spanDefendJob covers one defense evaluation's execution, on a lane
// claimed per job.
var spanDefendJob = obs.RegisterSpan("serve.defend-job")

// This file is the asynchronous countermeasure-evaluation surface:
// POST /v1/defend submits a defend.Evaluate campaign against the
// server's model and returns a job ID; GET /v1/defend/{id} reports
// per-arm trace progress and, once done, the SecurityReport; DELETE
// cancels.

// defendRequest is the POST /v1/defend body. Zero-valued campaign
// fields take the defend.Options defaults.
type defendRequest struct {
	// Defense is the countermeasure spec, e.g. "shuffle",
	// "shuffle:window=16", "dummy:rate=0.2", "jitter:rate=0.1,region=64".
	Defense string `json:"defense"`
	Seed    int64  `json:"seed"`
	// Workers overrides the server's per-campaign simulation fan-out;
	// at most maxDefendWorkers.
	Workers    int     `json:"workers"`
	TVLATraces int     `json:"tvla_traces"`
	CPATraces  int     `json:"cpa_traces"`
	CPAStep    int     `json:"cpa_step"`
	CPAPoints  int     `json:"cpa_points"`
	NoiseStd   float64 `json:"noise_std"`
}

// maxDefendWorkers bounds a request's workers. The evaluator builds one
// defended Session per worker, so the field sizes a job's memory and
// goroutines; past the host's CPUs more workers only cost memory.
const maxDefendWorkers = 64

// defendStatus is the wire form of a job snapshot.
type defendStatus struct {
	ID        string          `json:"job_id"`
	State     string          `json:"state"`
	Arm       string          `json:"arm,omitempty"` // campaign arm currently simulating
	Done      int             `json:"done"`          // traces simulated across both arms
	Total     int             `json:"total"`
	ElapsedMS int64           `json:"elapsed_ms"`
	Error     string          `json:"error,omitempty"`
	Report    json.RawMessage `json:"report,omitempty"`
}

// defendProgress is a defense job's visible progress. Arms run one after
// the other, every worker of one arm joined before the next starts, so
// the live arm is the most recent one and earlier arms are complete.
type defendProgress struct {
	arm      string // campaign arm currently simulating
	prior    int    // traces simulated by earlier arms
	armDone  int    // traces simulated by the live arm
	armTotal int    // traces per arm
}

// observe applies one Evaluate progress event and returns how many new
// traces it reports. Within an arm the simulation workers deliver
// events concurrently, with counts possibly out of order; a stale count
// is dropped to keep the totals monotonic.
func (p *defendProgress) observe(arm string, done, total int) int {
	if arm != p.arm {
		p.arm, p.prior, p.armDone = arm, p.prior+p.armDone, 0
	}
	p.armTotal = total
	delta := done - p.armDone
	if delta <= 0 {
		return 0
	}
	p.armDone = done
	return delta
}

// observeDefend is the Evaluate progress callback of job j; traces
// counts the campaign's newly simulated traces.
func observeDefend(j *asyncJob[defendProgress], traces *obs.Counter, arm string, done, total int) {
	j.mu.Lock()
	delta := j.progress.observe(arm, done, total)
	j.mu.Unlock()
	traces.Add(int64(delta))
}

// defendStatusOf renders a defense job for the wire, including the
// report only when asked.
func defendStatusOf(v jobView[defendProgress], withReport bool) any {
	st := defendStatus{
		ID:        v.id,
		State:     v.state,
		Arm:       v.progress.arm,
		Done:      v.progress.prior + v.progress.armDone,
		Total:     2 * v.progress.armTotal,
		ElapsedMS: v.elapsedMS,
		Error:     v.err,
	}
	if withReport && v.state == jobDone {
		st.Report = json.RawMessage(v.result)
	}
	return st
}

// ---- HTTP handlers ----

func (s *Server) handleDefendSubmit(w http.ResponseWriter, r *http.Request) {
	var req defendRequest
	if status, err := s.decodeRequest(w, r, &req); status != 0 {
		writeError(w, status, "decode: %v", err)
		return
	}
	spec, err := defend.ParseSpec(req.Defense)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.Seed < 0 || req.Workers < 0 || req.TVLATraces < 0 || req.CPATraces < 0 ||
		req.CPAStep < 0 || req.CPAPoints < 0 || req.NoiseStd < 0 {
		writeError(w, http.StatusBadRequest, "campaign fields must be non-negative")
		return
	}
	if req.Workers > maxDefendWorkers {
		writeError(w, http.StatusBadRequest, "workers %d exceeds limit %d", req.Workers, maxDefendWorkers)
		return
	}
	if req.TVLATraces > s.cfg.MaxDefendTraces || req.CPATraces > s.cfg.MaxDefendTraces {
		writeError(w, http.StatusBadRequest, "trace budget exceeds limit %d", s.cfg.MaxDefendTraces)
		return
	}
	// Reject undersized budgets at the API edge with the same guard the
	// evaluator applies, instead of accepting the job and failing it.
	if err := defend.CheckBudget(req.TVLATraces, req.CPATraces, req.CPAStep); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	opts := defend.Options{
		Model:      s.model,
		CPU:        s.cfg.CPU,
		Defense:    spec,
		Seed:       req.Seed,
		Workers:    req.Workers,
		TVLATraces: req.TVLATraces,
		CPATraces:  req.CPATraces,
		CPAStep:    req.CPAStep,
		CPAPoints:  req.CPAPoints,
		NoiseStd:   req.NoiseStd,
	}
	if opts.Workers == 0 {
		opts.Workers = s.cfg.DefendWorkers
	}

	j, err := s.defends.submit(func(ctx context.Context, j *asyncJob[defendProgress]) ([]byte, error) {
		opts.Progress = func(arm string, done, total int) { observeDefend(j, s.met.defendTraces, arm, done, total) }
		report, err := defend.Evaluate(ctx, opts)
		if err != nil {
			return nil, err
		}
		return json.Marshal(report)
	})
	if err != nil {
		s.shed(w, err)
		return
	}
	s.defends.writeStatus(w, http.StatusAccepted, j, false)
}
