package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"emsim/internal/aes"
	"emsim/internal/core"
	"emsim/internal/cpu"
	"emsim/internal/device"
	"emsim/internal/leakage"
)

var (
	modelOnce sync.Once
	model     *core.Model
	modelErr  error
)

// serveTestModel trains one small deterministic model for every test in
// the package.
func serveTestModel(t testing.TB) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		dev := device.MustNew(device.DefaultOptions())
		model, modelErr = core.Train(dev, core.TrainOptions{
			Runs:                3,
			InstancesPerCluster: 10,
			MixedPrograms:       2,
			MixedLength:         200,
			Seed:                7,
		})
	})
	if modelErr != nil {
		t.Fatalf("training failed: %v", modelErr)
	}
	return model
}

// newTestServer boots a Server on an httptest listener and registers
// cleanup that drains it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(serveTestModel(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

const loopAsm = `
    li   t0, 10
loop:
    addi t0, t0, -1
    bnez t0, loop
    ebreak
`

// spinWords is a program that never halts — it runs until MaxCycles,
// the request deadline, or a cancellation stops it.
var spinWords = []uint32{0x0000006F} // jal x0, 0

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
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

func TestSimulateHappyPathAsm(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, data := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Asm: loopAsm, IncludeStages: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out simulateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Cycles <= 0 || len(out.Signal) == 0 {
		t.Fatalf("empty simulation result: %+v", out)
	}
	if want := out.Cycles*out.SamplesPerCycle + 1; len(out.Signal) < want-out.SamplesPerCycle {
		t.Errorf("signal has %d samples for %d cycles at %d samples/cycle",
			len(out.Signal), out.Cycles, out.SamplesPerCycle)
	}
	if out.Stats.Retired == 0 {
		t.Error("stats.retired is zero")
	}
	if len(out.Stages) != int(cpu.NumStages) {
		t.Fatalf("got %d stage entries, want %d", len(out.Stages), cpu.NumStages)
	}
	shareSum := 0.0
	for _, st := range out.Stages {
		shareSum += st.Share
	}
	if shareSum < 0.99 || shareSum > 1.01 {
		t.Errorf("stage shares sum to %v, want ~1", shareSum)
	}
}

func TestSimulateHappyPathWords(t *testing.T) {
	m := serveTestModel(t)
	_, ts := newTestServer(t, Config{})

	// The served result must match a direct library simulation.
	sess, err := core.NewSession(m, cpu.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	words := []uint32{0x00100093, 0x00100073} // addi ra, zero, 1; ebreak
	want, err := sess.SimulateProgram(words)
	if err != nil {
		t.Fatal(err)
	}

	resp, data := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Words: words})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out simulateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Signal) != len(want) {
		t.Fatalf("served signal has %d samples, library %d", len(out.Signal), len(want))
	}
	for i := range want {
		if diff := out.Signal[i] - want[i]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("sample %d: served %v, library %v", i, out.Signal[i], want[i])
		}
	}
}

func TestSimulateValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxProgramWords: 16})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed JSON", `{"asm": "nop"`, http.StatusBadRequest},
		{"trailing garbage", `{"asm": "ebreak"} {"x":1}`, http.StatusBadRequest},
		{"unknown field", `{"asmx": "nop"}`, http.StatusBadRequest},
		{"no program", `{}`, http.StatusBadRequest},
		{"both programs", `{"asm": "ebreak", "words": [115]}`, http.StatusBadRequest},
		{"bad assembly", `{"asm": "frobnicate t0"}`, http.StatusBadRequest},
		{"huge reservation", `{"asm": ".space 4000000000"}`, http.StatusBadRequest},
		{"bad destination register", `{"asm": "neg bogus, t1\nebreak"}`, http.StatusBadRequest},
		{"immediate wider than 32 bits", `{"asm": "addi t0, zero, 4294967297\nebreak"}`, http.StatusBadRequest},
		{"oversized words", `{"words": [` + strings.Repeat("19,", 16) + `115]}`, http.StatusRequestEntityTooLarge},
		{"wrong method", ``, http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var err error
			if tc.name == "wrong method" {
				resp, err = http.Get(ts.URL + "/v1/simulate")
			} else {
				resp, err = http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(tc.body))
			}
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Errorf("status %d, want %d", resp.StatusCode, tc.want)
			}
		})
	}
}

// TestSimulateOversizedBody413 pins request decoding on every POST
// endpoint: a body over MaxRequestBytes is 413, and an unknown field or
// trailing data after the JSON value is 400.
func TestSimulateOversizedBody413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRequestBytes: 1024})
	bodies := []struct {
		name string
		body string
		want int
	}{
		{"oversized", `{"pad": "` + strings.Repeat("x", 2048) + `"}`, http.StatusRequestEntityTooLarge},
		{"unknown field", `{"nosuch": 1}`, http.StatusBadRequest},
		{"trailing data", `{} {"x": 1}`, http.StatusBadRequest},
	}
	for _, path := range []string{"/v1/simulate", "/v1/tvla", "/v1/train", "/v1/defend"} {
		for _, tc := range bodies {
			t.Run(strings.TrimPrefix(path, "/v1/")+"/"+tc.name, func(t *testing.T) {
				resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(tc.body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != tc.want {
					t.Errorf("status %d, want %d", resp.StatusCode, tc.want)
				}
			})
		}
	}
}

// waitVar polls one metric until it reaches want or the deadline
// passes.
func waitVar(t *testing.T, s *Server, get func() int64, want int64, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if get() == want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("%s never reached %d (now %d)", what, want, get())
}

// TestQueueFull429 saturates a 1-worker, depth-1 server deterministically:
// one spinning request occupies the worker, one fills the queue, and the
// next must be shed with 429 + Retry-After.
func TestQueueFull429(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 1, MaxTimeout: time.Minute, DefaultTimeout: time.Minute}
	cfg.CPU = cpu.DefaultConfig()
	cfg.CPU.MaxCycles = 1 << 30
	s, ts := newTestServer(t, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	spin := func() {
		defer wg.Done()
		body, _ := json.Marshal(simulateRequest{Words: spinWords})
		req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/simulate", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}
	// Occupy the worker, then fill the queue.
	wg.Add(1)
	go spin()
	waitVar(t, s, s.met.inFlight.Value, 1, "in_flight")
	wg.Add(1)
	go spin()
	waitVar(t, s, s.met.queueDepth.Value, 1, "queue_depth")

	resp, data := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Asm: loopAsm})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (%s), want 429", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 response has no Retry-After header")
	}

	// Cancelling the spinning clients must free the worker: a normal
	// request then succeeds.
	cancel()
	wg.Wait()
	waitVar(t, s, s.met.inFlight.Value, 0, "in_flight")
	waitVar(t, s, s.met.queueDepth.Value, 0, "queue_depth")
	resp2, data2 := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Asm: loopAsm})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel status %d (%s), want 200", resp2.StatusCode, data2)
	}
}

// TestCancellationFreesSession pins the core serving contract: a client
// disconnect mid-simulation hands the pooled session back within one
// context-check interval, not when the program would have halted.
func TestCancellationFreesSession(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 4, MaxTimeout: time.Minute, DefaultTimeout: time.Minute}
	cfg.CPU = cpu.DefaultConfig()
	cfg.CPU.MaxCycles = 1 << 30 // ~forever: only cancellation can stop it
	s, ts := newTestServer(t, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		body, _ := json.Marshal(simulateRequest{Words: spinWords})
		req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/simulate", bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitVar(t, s, s.met.inFlight.Value, 1, "in_flight")

	cancel() // client disconnects mid-simulation
	<-done

	// The session must come back quickly (one CtxCheckInterval of
	// simulated cycles, far under a second of wall clock).
	start := time.Now()
	waitVar(t, s, s.met.inFlight.Value, 0, "in_flight")
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("session took %s to return to the pool after cancellation", waited)
	}
	if got := s.met.cancelled.Value(); got == 0 {
		t.Error("cancelled counter did not move")
	}

	// And it must be reusable.
	resp, data := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Asm: loopAsm})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cancel status %d (%s), want 200", resp.StatusCode, data)
	}
}

// TestRequestTimeout408 pins the deadline path: a program that cannot
// halt within its own timeout_ms comes back 408, not 500.
func TestRequestTimeout408(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 4}
	cfg.CPU = cpu.DefaultConfig()
	cfg.CPU.MaxCycles = 1 << 30
	_, ts := newTestServer(t, cfg)
	resp, data := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Words: spinWords, TimeoutMS: 50})
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status %d (%s), want 408", resp.StatusCode, data)
	}
}

// TestRunawayProgram422 pins that a program exceeding MaxCycles is the
// request's fault (422), not a server error.
func TestRunawayProgram422(t *testing.T) {
	cfg := Config{Workers: 1, QueueDepth: 4}
	cfg.CPU = cpu.DefaultConfig()
	cfg.CPU.MaxCycles = 10_000
	_, ts := newTestServer(t, cfg)
	resp, data := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Words: spinWords})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d (%s), want 422", resp.StatusCode, data)
	}
}

func TestHealthzAndVarz(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	if r, d := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Asm: loopAsm}); r.StatusCode != 200 {
		t.Fatalf("simulate status %d: %s", r.StatusCode, d)
	}
	if cycles := scrape(t, ts.URL, "emsim_simulated_cycles_total"); cycles <= 0 {
		t.Errorf("emsim_simulated_cycles_total = %d, want > 0", cycles)
	}
	if r, _ := getBody(t, ts.URL+"/varz"); r.StatusCode != http.StatusNotFound {
		t.Errorf("/varz status %d, want 404: /metrics is the only metrics view", r.StatusCode)
	}

	// Drain flips healthz to 503.
	s.Close()
	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", resp3.StatusCode)
	}

	// And submissions are refused with 503, not a panic on a closed queue.
	resp4, _ := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Asm: loopAsm})
	if resp4.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining simulate status %d, want 503", resp4.StatusCode)
	}
}

func TestTVLAEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a small AES campaign")
	}
	_, ts := newTestServer(t, Config{})
	req := tvlaRequest{
		KeyHex:         "2b7e151628aed2a6abf7158809cf4f3c",
		FixedHex:       "74766c612d66697865642d696e707574",
		TracesPerGroup: 4,
		Seed:           3,
	}
	resp, data := postJSON(t, ts.URL+"/v1/tvla", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var out tvlaResponse
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.Samples <= 0 || out.TracesPerGroup != 4 {
		t.Fatalf("bad TVLA response: %+v", out)
	}
	// Reproducibility: the same seed must yield the same statistic.
	resp2, data2 := postJSON(t, ts.URL+"/v1/tvla", req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	var out2 tvlaResponse
	if err := json.Unmarshal(data2, &out2); err != nil {
		t.Fatal(err)
	}
	if out.MaxAbsT != out2.MaxAbsT || out.LeakyCount != out2.LeakyCount {
		t.Errorf("same-seed TVLA differs: %+v vs %+v", out, out2)
	}

	badCases := []tvlaRequest{
		{KeyHex: "xx", FixedHex: req.FixedHex, TracesPerGroup: 4},
		{KeyHex: req.KeyHex, FixedHex: "00", TracesPerGroup: 4},
		{KeyHex: req.KeyHex, FixedHex: req.FixedHex, TracesPerGroup: 1},
		{KeyHex: req.KeyHex, FixedHex: req.FixedHex, TracesPerGroup: 100000},
		{KeyHex: req.KeyHex, FixedHex: req.FixedHex, TracesPerGroup: 4, NoiseStd: -1},
	}
	for i, bad := range badCases {
		if r, _ := postJSON(t, ts.URL+"/v1/tvla", bad); r.StatusCode != http.StatusBadRequest {
			t.Errorf("bad case %d: status %d, want 400", i, r.StatusCode)
		}
	}
}

// TestTVLAMatchesLibrary pins that /v1/tvla runs the library's TVLA
// campaign: leakage.TVLA over a session-backed SimSource, with the
// handler's seeds (seed for the random inputs, seed+1 for the noise),
// yields the served statistic bit for bit.
func TestTVLAMatchesLibrary(t *testing.T) {
	m := serveTestModel(t)
	_, ts := newTestServer(t, Config{Workers: 1})
	const keyHex, fixedHex = "2b7e151628aed2a6abf7158809cf4f3c", "74766c612d66697865642d696e707574"
	key, _ := decodeBlock("key_hex", keyHex)
	fixed, _ := decodeBlock("fixed_hex", fixedHex)
	const seed, traces = 5, 3
	for _, std := range []float64{0, 0.05} {
		resp, data := postJSON(t, ts.URL+"/v1/tvla", tvlaRequest{
			KeyHex:         keyHex,
			FixedHex:       fixedHex,
			TracesPerGroup: traces,
			Seed:           seed,
			NoiseStd:       std,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("noise %v: status %d: %s", std, resp.StatusCode, data)
		}
		var got tvlaResponse
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatal(err)
		}

		sess, err := core.NewSession(m, cpu.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		build := func(in [16]byte) ([]uint32, error) {
			prog, err := aes.BuildProgram(key, in)
			if err != nil {
				return nil, err
			}
			return prog.Words, nil
		}
		var noise func() float64
		if std > 0 {
			nrng := rand.New(rand.NewSource(seed + 1))
			noise = func() float64 { return std * nrng.NormFloat64() }
		}
		want, err := leakage.TVLA(leakage.SimSource(sess, build, noise), fixed, rand.New(rand.NewSource(seed)), traces)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.MaxAbsT) != math.Float64bits(finiteT(want.MaxAbsT)) ||
			got.LeakyCount != len(want.LeakyPoints) || got.Samples != len(want.T) || got.TracesPerGroup != want.Traces {
			t.Errorf("noise %v: served max_abs_t %v, leaky_count %d, samples %d, traces_per_group %d; library %v, %d, %d, %d",
				std, got.MaxAbsT, got.LeakyCount, got.Samples, got.TracesPerGroup,
				finiteT(want.MaxAbsT), len(want.LeakyPoints), len(want.T), want.Traces)
		}
	}
}

// TestDrainWaitsForInflight pins graceful shutdown: Close must block
// until queued work has finished, and the finished work must have
// produced a full response.
func TestDrainWaitsForInflight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	const n = 6
	results := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postJSON(t, ts.URL+"/v1/simulate", simulateRequest{Asm: loopAsm})
			results <- resp.StatusCode
		}()
	}
	// Let at least one request reach the pool, then drain.
	waitVarAtLeast(t, s, s.met.requests.Value, 1)
	s.Close()
	wg.Wait()
	close(results)
	for code := range results {
		if code != http.StatusOK && code != http.StatusServiceUnavailable {
			t.Errorf("drain race returned status %d, want 200 or 503", code)
		}
	}
}

func waitVarAtLeast(t *testing.T, s *Server, get func() int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if get() >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("metric never reached %d (now %d)", want, get())
}
