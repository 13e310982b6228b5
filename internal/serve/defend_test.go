package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"emsim/internal/defend"
)

// pollDefend polls one defense job until its state leaves the given set
// or the deadline passes, returning the last status seen.
func pollDefend(t *testing.T, url, id string, while ...string) defendStatus {
	t.Helper()
	transient := map[string]bool{}
	for _, s := range while {
		transient[s] = true
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/defend/%s", url, id))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll: status %d: %s", resp.StatusCode, data)
		}
		var st defendStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("poll: decode: %v", err)
		}
		if !transient[st.State] || time.Now().After(deadline) {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func submitDefend(t *testing.T, url string, req defendRequest) (defendStatus, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/defend", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var st defendStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("submit: decode: %v (%s)", err, data)
		}
	}
	return st, resp
}

func TestDefendJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st, resp := submitDefend(t, ts.URL, defendRequest{
		Defense:    "dummy:rate=0.2",
		Seed:       3,
		TVLATraces: 4,
		CPATraces:  12,
		CPAStep:    12,
		CPAPoints:  32,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if st.ID == "" || st.State != jobQueued {
		t.Fatalf("submit: unexpected status %+v", st)
	}

	final := pollDefend(t, ts.URL, st.ID, jobQueued, jobRunning)
	if final.State != jobDone {
		t.Fatalf("job ended %q (error %q), want done", final.State, final.Error)
	}
	if final.Done != final.Total || final.Total != 2*(12+2*4) {
		t.Fatalf("progress %d/%d, want %d/%d", final.Done, final.Total, 2*(12+2*4), 2*(12+2*4))
	}
	var report defend.SecurityReport
	if err := json.Unmarshal(final.Report, &report); err != nil {
		t.Fatalf("report: %v", err)
	}
	if report.Defense != "dummy:rate=0.2" {
		t.Errorf("report defense %q", report.Defense)
	}
	if report.Baseline.MeanCycles <= 0 || report.Defended.MeanCycles <= report.Baseline.MeanCycles {
		t.Errorf("suspicious cycle counts: baseline %.1f defended %.1f",
			report.Baseline.MeanCycles, report.Defended.MeanCycles)
	}
}

func TestDefendValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxDefendTraces: 100})
	cases := []defendRequest{
		{},                                    // missing defense
		{Defense: "mask"},                     // unknown defense
		{Defense: "shuffle", Seed: -1},        // negative field
		{Defense: "shuffle", CPATraces: 101},  // over the budget cap
		{Defense: "shuffle", TVLATraces: 101}, // over the budget cap
		{Defense: "shuffle", Workers: 65},     // over the worker cap
		{Defense: "dummy:rate=2"},             // out-of-range parameter
	}
	for _, req := range cases {
		_, resp := submitDefend(t, ts.URL, req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400", req, resp.StatusCode)
		}
	}
}

func TestDefendCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st, resp := submitDefend(t, ts.URL, defendRequest{
		Defense:    "jitter:rate=0.3,region=16",
		TVLATraces: 64,
		CPATraces:  512,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/defend/%s", ts.URL, st.ID), nil)
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
	final := pollDefend(t, ts.URL, st.ID, jobQueued, jobRunning)
	if final.State != jobCancelled {
		t.Fatalf("job ended %q, want cancelled", final.State)
	}
}

func TestDefendUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/defend/defend-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status %d, want 404", resp.StatusCode)
	}
}
