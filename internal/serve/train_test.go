package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"emsim/internal/core"
)

// pollTrain polls one training job until its state leaves the given set
// or the deadline passes, returning the last status seen.
func pollTrain(t *testing.T, url, id string, while ...string) trainStatus {
	t.Helper()
	transient := map[string]bool{}
	for _, s := range while {
		transient[s] = true
	}
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := http.Get(fmt.Sprintf("%s/v1/train/%s", url, id))
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
		var st trainStatus
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("poll: decode: %v", err)
		}
		if !transient[st.State] || time.Now().After(deadline) {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestTrainJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Submit the same starved campaign the test model was trained with.
	resp, data := postJSON(t, ts.URL+"/v1/train", trainRequest{
		Seed: 7, Runs: 3, InstancesPerCluster: 10, MixedPrograms: 2, MixedLength: 200,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var sub trainStatus
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
	}
	if sub.ID == "" || (sub.State != jobQueued && sub.State != jobRunning) {
		t.Fatalf("submit returned %+v", sub)
	}

	st := pollTrain(t, ts.URL, sub.ID, jobQueued, jobRunning)
	if st.State != jobDone {
		t.Fatalf("job ended %q (error %q), want done", st.State, st.Error)
	}
	if st.Phase != core.PhaseMISO.String() || st.Done != st.Total || st.Total == 0 {
		t.Errorf("final status %+v, want completed miso phase", st)
	}
	if len(st.Model) == 0 {
		t.Fatal("done job returned no model")
	}
	if n := scrape(t, ts.URL, "emsim_measurement_cache_entries"); n == 0 {
		t.Error("emsim_measurement_cache_entries is 0 after a training campaign")
	}

	// The trained model must round-trip and — the determinism contract
	// across the whole stack — match the sequentially trained test model
	// byte for byte (same campaign, same device configuration).
	got, err := core.LoadModel(bytes.NewReader(st.Model))
	if err != nil {
		t.Fatalf("returned model does not load: %v", err)
	}
	var want, gotBuf bytes.Buffer
	if err := serveTestModel(t).Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := got.Save(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), gotBuf.Bytes()) {
		t.Error("served training differs from sequential core.Train for the same campaign")
	}
}

func TestTrainJobCancel(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// A campaign big enough to still be in flight when the cancel lands.
	resp, data := postJSON(t, ts.URL+"/v1/train", trainRequest{Runs: 150, InstancesPerCluster: core.MaxInstancesPerCluster})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", resp.StatusCode, data)
	}
	var sub trainStatus
	if err := json.Unmarshal(data, &sub); err != nil {
		t.Fatal(err)
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
	if len(st.Model) != 0 {
		t.Error("cancelled job returned a model")
	}
}

func TestTrainValidationAndLookup(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	for name, req := range map[string]trainRequest{
		"negative seed":  {Seed: -1},
		"excessive runs": {Runs: 100000},
		"huge campaign":  {InstancesPerCluster: 100000},
		// Sizes whose programs would reach the training scratch data.
		"instances past the limit":    {InstancesPerCluster: 150},
		"mixed length past the limit": {MixedLength: 2100},
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/train", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/train/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}
