package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"emsim/internal/cpu"
)

// FuzzSimulateRequest is the /v1/simulate trust boundary: any request
// body gets a documented status and a JSON body, never a panic, and a
// 200's signal is finite. The server is small on purpose: one worker,
// tight size caps and a 50,000-cycle budget, so a program that never
// halts ends fast.
func FuzzSimulateRequest(f *testing.F) {
	cfg := Config{
		Workers:         1,
		MaxProgramWords: 4096,
		MaxRequestBytes: 64 << 10,
		DefaultTimeout:  2 * time.Second,
		MaxTimeout:      2 * time.Second,
		CPU:             cpu.DefaultConfig(),
	}
	cfg.CPU.MaxCycles = 50_000
	s, err := New(serveTestModel(f), cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.Close)
	h := s.Handler()

	for _, seed := range []string{
		`{"asm":"li t0, 3\nloop: addi t0, t0, -1\nbnez t0, loop\nebreak"}`,
		`{"words":[19,1048691]}`,
		`{"asm":"nop\nebreak","words":[19,1048691]}`,
		`{}`,
		`{"words":[19,1048691]} {"words":[19]}`,
		`{"words":[19,1048691],"bogus":1}`,
		`{"asm":".space 100000000\nebreak"}`,
		`{"words":[111]}`, // jal x0, 0: never halts
		`{"asm":"li t0, 0x100000000\nebreak"}`,
		`{"words":[19,1048691],"timeout_ms":-5}`,
		`{"words":[19,1048691],"include_stages":true,"omit_signal":true}`,
		`[`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestTimeout,
			http.StatusRequestEntityTooLarge, http.StatusUnprocessableEntity, http.StatusTooManyRequests:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body.Bytes())
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("status %d: body is not JSON: %q", rec.Code, rec.Body.Bytes())
		}
		if rec.Code != http.StatusOK {
			return
		}
		var out simulateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatal(err)
		}
		for i, v := range out.Signal {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("signal sample %d = %v", i, v)
			}
		}
	})
}
