package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"emsim/internal/obs"
)

// This file is the background-job substrate shared by /v1/train and
// /v1/defend. A campaign runs for seconds to hours, far longer than a
// simulate call, so it runs on its own goroutine gated by a small
// per-kind semaphore rather than through the simulation worker pool;
// clients poll GET /v1/{kind}/{id} and cancel with DELETE. Each kind
// supplies only its progress record P, its wire status and its run
// function.

// Background job states.
const (
	jobQueued    = "queued"
	jobRunning   = "running"
	jobDone      = "done"
	jobFailed    = "failed"
	jobCancelled = "cancelled"
)

// maxJobRecords bounds each registry; above it, submission evicts the
// oldest finished job or sheds the request.
const maxJobRecords = 64

// asyncJob is one background campaign and its observable state. P is
// the kind's progress record; the kind's observer updates it under mu
// with a static call.
type asyncJob[P any] struct {
	id     string
	cancel context.CancelFunc

	mu       sync.Mutex
	state    string
	progress P
	started  time.Time
	elapsed  time.Duration // frozen at completion
	err      string
	result   []byte // serialized outcome, set when state == jobDone
	finished bool
}

// jobView is a job's state copied out under its lock, for rendering.
type jobView[P any] struct {
	id        string
	state     string
	progress  P
	elapsedMS int64
	err       string
	result    []byte
}

func (j *asyncJob[P]) view() jobView[P] {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView[P]{id: j.id, state: j.state, progress: j.progress, err: j.err, result: j.result}
	switch {
	case j.finished:
		v.elapsedMS = j.elapsed.Milliseconds()
	case !j.started.IsZero():
		v.elapsedMS = time.Since(j.started).Milliseconds()
	}
	return v
}

func (j *asyncJob[P]) setRunning() {
	j.mu.Lock()
	j.state = jobRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish records the campaign outcome exactly once and returns the
// job's final state. The error is rendered before taking the lock:
// Error is foreign code (a wrapped chain may format lazily) and has no
// business inside the critical section.
func (j *asyncJob[P]) finish(result []byte, err error) string {
	var msg string
	if err != nil {
		msg = err.Error()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.finished {
		return j.state
	}
	j.finished = true
	if !j.started.IsZero() {
		j.elapsed = time.Since(j.started)
	}
	switch {
	case err == nil:
		j.state = jobDone
		j.result = result
	case errors.Is(err, context.Canceled):
		j.state = jobCancelled
	default:
		j.state = jobFailed
		j.err = msg
	}
	return j.state
}

// jobFunc runs one campaign under ctx and returns its serialized
// outcome. It receives its job so it can route progress events to it.
type jobFunc[P any] func(ctx context.Context, j *asyncJob[P]) ([]byte, error)

// jobMetrics are one job kind's lifecycle counters.
type jobMetrics struct {
	submitted *obs.Counter // jobs accepted
	active    *obs.Gauge   // jobs queued or running
	done      *obs.Counter // jobs that produced a result
	failed    *obs.Counter // jobs that ended in error
	cancelled *obs.Counter // jobs cancelled by the client or drain
}

// newJobMetrics registers the emsim_<kind>_jobs_* families; noun names
// the kind in their help text.
func newJobMetrics(reg *obs.Registry, kind, noun string) jobMetrics {
	family := "emsim_" + kind + "_jobs"
	return jobMetrics{
		submitted: reg.Counter(family+"_submitted_total", noun+" jobs accepted"),
		active:    reg.Gauge(family+"_active", noun+" jobs queued or running"),
		done:      reg.Counter(family+"_total", "finished "+noun+" jobs by outcome", "state", "done"),
		failed:    reg.Counter(family+"_total", "", "state", "failed"),
		cancelled: reg.Counter(family+"_total", "", "state", "cancelled"),
	}
}

// jobs is the registry of one background job kind: submission,
// lookup, the run-concurrency semaphore, bounded eviction, the per-job
// span, the lifecycle counters, drain-time cancellation and the GET and
// DELETE handlers.
type jobs[P any] struct {
	kind   string // job ID prefix: "train" or "defend"
	noun   string // the kind in error messages
	span   obs.SpanID
	base   context.Context // parent of every job context (Config.BaseContext)
	sem    chan struct{}
	met    jobMetrics
	render func(v jobView[P], withResult bool) any // the kind's wire status

	mu     sync.Mutex
	byID   map[string]*asyncJob[P]
	order  []string // insertion order, for bounded eviction
	nextID int
	closed bool
	wg     sync.WaitGroup
}

func newJobs[P any](kind, noun string, span obs.SpanID, base context.Context, concurrent int, met jobMetrics, render func(jobView[P], bool) any) *jobs[P] {
	return &jobs[P]{
		kind:   kind,
		noun:   noun,
		span:   span,
		base:   base,
		sem:    make(chan struct{}, concurrent),
		met:    met,
		render: render,
		byID:   map[string]*asyncJob[P]{},
	}
}

// submit registers a campaign and starts its runner goroutine. The
// returned error is nil, errQueueFull (registry full of live jobs) or
// errDraining.
func (r *jobs[P]) submit(run jobFunc[P]) (*asyncJob[P], error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil, errDraining
	}
	if len(r.byID) >= maxJobRecords && !r.evictLocked() {
		return nil, errQueueFull
	}
	r.nextID++
	ctx, cancel := context.WithCancel(r.base)
	j := &asyncJob[P]{id: fmt.Sprintf("%s-%d", r.kind, r.nextID), cancel: cancel, state: jobQueued}
	r.byID[j.id] = j
	r.order = append(r.order, j.id)
	r.met.submitted.Inc()
	r.met.active.Add(1)
	r.wg.Add(1)
	go r.run(ctx, j, run)
	return j, nil
}

// evictLocked drops the oldest finished job; it reports whether a slot
// was freed. Callers hold r.mu.
func (r *jobs[P]) evictLocked() bool {
	for i, id := range r.order {
		j := r.byID[id]
		j.mu.Lock()
		finished := j.finished
		j.mu.Unlock()
		if finished {
			delete(r.byID, id)
			r.order = append(r.order[:i], r.order[i+1:]...)
			return true
		}
	}
	return false
}

// get looks a job up by ID.
func (r *jobs[P]) get(id string) *asyncJob[P] {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byID[id]
}

// run executes one campaign: wait for a concurrency slot, run it, and
// record the outcome on the job and in the lifecycle counters.
func (r *jobs[P]) run(ctx context.Context, j *asyncJob[P], run jobFunc[P]) {
	defer r.wg.Done()
	defer r.met.active.Add(-1)
	var result []byte
	var err error
	select {
	case r.sem <- struct{}{}:
		defer func() { <-r.sem }()
		j.setRunning()
		lane := obs.NextLane()
		obs.Begin(r.span, lane)
		result, err = run(ctx, j)
		obs.End(r.span, lane)
	case <-ctx.Done():
		err = ctx.Err()
	}
	switch j.finish(result, err) {
	case jobDone:
		r.met.done.Inc()
	case jobCancelled:
		r.met.cancelled.Inc()
	default:
		r.met.failed.Inc()
	}
}

// drain cancels every live campaign and waits for all runner goroutines
// to exit. Safe to call more than once. Jobs are snapshotted under the
// lock but cancelled outside it: cancel funcs run foreign Done-channel
// machinery, and submit already refuses new jobs once closed is set.
func (r *jobs[P]) drain() {
	r.mu.Lock()
	r.closed = true
	live := make([]*asyncJob[P], 0, len(r.byID))
	for _, j := range r.byID {
		live = append(live, j)
	}
	r.mu.Unlock()
	for _, j := range live {
		j.cancel()
	}
	r.wg.Wait()
}

// writeStatus renders one job's wire status, with its result only when
// asked (submit and cancel responses skip the payload).
func (r *jobs[P]) writeStatus(w http.ResponseWriter, status int, j *asyncJob[P], withResult bool) {
	writeJSON(w, status, r.render(j.view(), withResult))
}

func (r *jobs[P]) handleStatus(w http.ResponseWriter, req *http.Request) {
	j := r.get(req.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such %s job", r.noun)
		return
	}
	r.writeStatus(w, http.StatusOK, j, true)
}

// handleCancel cancels asynchronously: the campaign unwinds within one
// capture or context-check interval per in-flight worker; clients poll
// the status for "cancelled".
func (r *jobs[P]) handleCancel(w http.ResponseWriter, req *http.Request) {
	j := r.get(req.PathValue("id"))
	if j == nil {
		writeError(w, http.StatusNotFound, "no such %s job", r.noun)
		return
	}
	j.cancel()
	r.writeStatus(w, http.StatusAccepted, j, false)
}
