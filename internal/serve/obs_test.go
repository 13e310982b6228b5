package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"emsim/internal/core"
	"emsim/internal/obs"
)

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// scrape reads one unlabeled series from GET /metrics.
func scrape(t *testing.T, url, series string) int64 {
	t.Helper()
	_, data := getBody(t, url+"/metrics")
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("%s %q: %v", series, v, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s series", series)
	return 0
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, data := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Asm: loopAsm})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", resp.StatusCode, data)
	}

	resp, data = getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics content type %q, want text/plain exposition format", ct)
	}
	text := string(data)
	for _, want := range []string{
		"# TYPE emsim_requests_accepted_total counter",
		"emsim_requests_accepted_total 1",
		"# TYPE emsim_queue_depth gauge",
		"# TYPE emsim_request_duration_seconds histogram",
		`emsim_request_duration_seconds_bucket{endpoint="simulate",le="+Inf"} 1`,
		`emsim_request_duration_seconds_count{endpoint="simulate"} 1`,
		`emsim_train_jobs_total{state="done"} 0`,
		`emsim_train_phase_duration_seconds_count{phase="kernel-fit"} 0`,
		"# TYPE emsim_simulated_cycles_total counter",
		"emsim_measurement_cache_hits 0",
		"emsim_measurement_cache_misses 0",
		"emsim_measurement_cache_entries 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q:\n%s", want, text)
		}
	}
	// Request-duration labels name only endpoints that submit jobs; no
	// route runs a SAVAT or attribution job.
	for _, label := range []string{`endpoint="savat"`, `endpoint="attribute"`} {
		if strings.Contains(text, label) {
			t.Errorf("/metrics has a series with %s, which no route submits", label)
		}
	}
}

func TestTraceEndpointSnapshot(t *testing.T) {
	obs.Enable(1 << 12)
	defer obs.Disable()
	_, ts := newTestServer(t, Config{})

	resp, data := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Asm: loopAsm})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", resp.StatusCode, data)
	}

	resp, data = getBody(t, ts.URL+"/v1/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/trace: status %d", resp.StatusCode)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("/v1/trace is not JSON: %v\n%s", err, data)
	}
	seen := map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Ph != "X" {
			t.Errorf("event %+v: want only complete (X) events", e)
		}
		seen[e.Name] = true
	}
	for _, want := range []string{"serve.queued", "serve.run", "session.simulate"} {
		if !seen[want] {
			t.Errorf("trace snapshot missing a %s span (saw %v)", want, seen)
		}
	}
}

func TestTraceEndpointDisabledIsWellFormed(t *testing.T) {
	obs.Disable()
	obs.Enable(64) // fresh empty ring so earlier tests' events don't bleed in
	obs.Disable()
	_, ts := newTestServer(t, Config{})
	resp, data := getBody(t, ts.URL+"/v1/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/trace: status %d", resp.StatusCode)
	}
	var trace struct {
		TraceEvents []any `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatalf("disabled /v1/trace is not JSON: %v\n%s", err, data)
	}
	if len(trace.TraceEvents) != 0 {
		t.Errorf("disabled recorder produced %d events, want an empty trace", len(trace.TraceEvents))
	}
}

func TestDebugHandlerPprof(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	dbg := httptest.NewServer(s.DebugHandler())
	defer dbg.Close()

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/symbol", "/metrics", "/v1/trace"} {
		resp, data := getBody(t, dbg.URL+path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d: %s", path, resp.StatusCode, data)
		}
		if path == "/debug/pprof/" && !strings.Contains(string(data), "goroutine") {
			t.Errorf("pprof index does not list profiles:\n%s", data)
		}
	}
}

// TestTrainCancelMidPhaseDrains DELETEs a /v1/train job while its
// campaign is mid-phase and asserts the whole stack unwinds: the job
// reports cancelled, the registry's active gauge returns to zero, Close
// drains cleanly, and no goroutine (trainer measurement workers
// included) outlives the server.
func TestTrainCancelMidPhaseDrains(t *testing.T) {
	serveTestModel(t) // pre-train the shared model outside the goroutine baseline
	baseline := stableGoroutineCount()

	s, err := New(serveTestModel(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	// A campaign big enough to be mid-phase when the cancel lands.
	resp, data := postJSON(t, ts.URL+"/v1/train", trainRequest{Runs: 150, InstancesPerCluster: core.MaxInstancesPerCluster})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var sub trainStatus
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}

	// Wait until the campaign is demonstrably mid-phase: running, with
	// at least one measurement done and more still to come.
	deadline := time.Now().Add(120 * time.Second)
	for {
		_, data := getBody(t, fmt.Sprintf("%s/v1/train/%s", ts.URL, sub.ID))
		var st trainStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		if st.State == jobRunning && st.Done > 0 && st.Done < st.Total {
			break
		}
		if st.State != jobQueued && st.State != jobRunning {
			t.Fatalf("job reached %q before the cancel could land mid-phase", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign never got mid-phase: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/train/%s", ts.URL, sub.ID), nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d", dresp.StatusCode)
	}

	st := pollTrain(t, ts.URL, sub.ID, jobQueued, jobRunning)
	if st.State != jobCancelled {
		t.Fatalf("job ended %q, want cancelled", st.State)
	}
	waitVar(t, s, s.met.trains.active.Value, 0, "trains_active")
	if got := s.met.trains.cancelled.Value(); got != 1 {
		t.Errorf("trains_cancelled = %d, want 1", got)
	}

	// The registry must drain and every worker join: after Close, the
	// goroutine count returns to the pre-server baseline.
	ts.Close()
	s.Close()
	drainDeadline := time.Now().Add(30 * time.Second)
	for {
		if after := stableGoroutineCount(); after <= baseline+2 {
			return
		}
		if time.Now().After(drainDeadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<16)
	n := runtime.Stack(buf, true)
	t.Errorf("goroutines leaked after mid-phase cancel: %d at baseline, %d after drain\n%s",
		baseline, stableGoroutineCount(), buf[:n])
}
