package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"emsim/internal/core"
	"emsim/internal/obs"
)

// Regression tests for the lockscope/ctxflow fixes: progress observers
// must tolerate concurrent, out-of-order delivery; job and registry
// locks must not wrap foreign code (error rendering, cancel funcs); and
// Config.BaseContext must parent every background campaign.

func TestJobObserveMonotonic(t *testing.T) {
	// Campaign workers deliver completion counts out of order; a stale
	// count must not wind the visible counter backwards.
	t.Run("train", func(t *testing.T) {
		// A new phase resets the counter.
		j := &asyncJob[trainProgress]{id: "train-1", state: jobRunning}
		status := func() trainStatus { return trainStatusOf(j.view(), false).(trainStatus) }
		observeTrain(j, core.Progress{Phase: core.PhaseKernel, Done: 2, Total: 5})
		observeTrain(j, core.Progress{Phase: core.PhaseKernel, Done: 1, Total: 5})
		if st := status(); st.Done != 2 {
			t.Errorf("stale event moved the counter: Done = %d, want 2", st.Done)
		}
		observeTrain(j, core.Progress{Phase: core.PhaseBaseline, Done: 0, Total: 7})
		if st := status(); st.Phase != core.PhaseBaseline.String() || st.Done != 0 || st.Total != 7 {
			t.Errorf("phase change not applied: %+v", st)
		}
	})
	t.Run("defend", func(t *testing.T) {
		// A new arm accumulates on top of the finished one, and the trace
		// counter moves by exactly the new traces.
		j := &asyncJob[defendProgress]{id: "defend-1", state: jobRunning}
		status := func() defendStatus { return defendStatusOf(j.view(), false).(defendStatus) }
		var traces obs.Counter
		observeDefend(j, &traces, "baseline", 3, 10)
		observeDefend(j, &traces, "baseline", 2, 10)
		if st := status(); st.Done != 3 || traces.Value() != 3 {
			t.Errorf("stale event moved the counters: Done = %d, traces = %d, want 3", st.Done, traces.Value())
		}
		observeDefend(j, &traces, "shuffle", 1, 10)
		if st := status(); st.Arm != "shuffle" || st.Done != 4 || st.Total != 20 || traces.Value() != 4 {
			t.Errorf("arm change not accumulated: %+v, traces = %d", st, traces.Value())
		}
	})
}

// statusErr is an error whose rendering calls back into the job it is
// being recorded on — the sharpest form of "Error is foreign code".
type statusErr struct{ status func() }

func (e statusErr) Error() string {
	e.status()
	return "boom"
}

// finishWithReentrantError finishes j with an error whose rendering
// re-enters the job, failing t if finish deadlocks.
func finishWithReentrantError[P any](t *testing.T, j *asyncJob[P]) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		j.finish(nil, statusErr{status: func() { j.view() }})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("finish deadlocked rendering the error under the job lock")
	}
}

func TestTrainFinishRendersErrorOutsideLock(t *testing.T) {
	// finish must render err.Error() before taking the job lock; an
	// error that re-enters the job deadlocked under the old ordering.
	j := &asyncJob[trainProgress]{id: "train-1", state: jobRunning}
	finishWithReentrantError(t, j)
	if st := trainStatusOf(j.view(), false).(trainStatus); st.State != jobFailed || st.Error != "boom" {
		t.Errorf("finish recorded %+v, want failed/boom", st)
	}
}

func TestDefendFinishRendersErrorOutsideLock(t *testing.T) {
	j := &asyncJob[defendProgress]{id: "defend-1", state: jobRunning}
	finishWithReentrantError(t, j)
	if st := defendStatusOf(j.view(), false).(defendStatus); st.State != jobFailed || st.Error != "boom" {
		t.Errorf("finish recorded %+v, want failed/boom", st)
	}
}

func TestDrainCancelsOutsideRegistryLock(t *testing.T) {
	// drain snapshots jobs under the registry lock but runs the cancel
	// funcs outside it. A cancel that re-enters the registry (context
	// machinery running arbitrary callbacks) deadlocked under the old
	// ordering.
	r := newJobs("train", "training", spanTrainJob, context.Background(), 1, newMetrics(nil).trains, trainStatusOf)
	j := &asyncJob[trainProgress]{id: "train-1", state: jobQueued}
	j.cancel = func() { r.get(j.id) }
	r.byID[j.id] = j
	r.order = append(r.order, j.id)

	done := make(chan struct{})
	go func() {
		r.drain()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("drain deadlocked running a cancel func under the registry lock")
	}
}

func TestBaseContextCancelsJobs(t *testing.T) {
	// Config.BaseContext parents every background campaign: cancelling
	// it must unwind a running training job just like its DELETE route.
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, ts := newTestServer(t, Config{BaseContext: base})

	// A campaign big enough to still be in flight when the cancel lands.
	resp, data := postJSON(t, ts.URL+"/v1/train", trainRequest{Runs: 150, InstancesPerCluster: core.MaxInstancesPerCluster})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var sub trainStatus
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	cancel()
	st := pollTrain(t, ts.URL, sub.ID, jobQueued, jobRunning)
	if st.State != jobCancelled {
		t.Fatalf("job ended %q (error %q) after base-context cancel, want cancelled", st.State, st.Error)
	}
}
