package serve

import (
	"context"
	"encoding/hex"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"time"

	"emsim/internal/aes"
	"emsim/internal/core"
	"emsim/internal/leakage"
	"emsim/internal/obs"
)

// spanTVLAAnalysis covers the statistic-extraction (snapshot) phase of a
// /v1/tvla assessment, on a lane claimed per request.
var spanTVLAAnalysis = obs.RegisterSpan("serve.tvla-analysis")

// tvlaRequest is the /v1/tvla body: a fixed-vs-random leakage
// assessment of AES-128 under the loaded model.
type tvlaRequest struct {
	// KeyHex is the 16-byte AES key; FixedHex the fixed input block.
	// Both are hex-encoded (32 characters).
	KeyHex   string `json:"key_hex"`
	FixedHex string `json:"fixed_hex"`
	// TracesPerGroup is the campaign size per group (fixed and random),
	// in [2, maxTVLATraces].
	TracesPerGroup int `json:"traces_per_group"`
	// Seed drives the random group's inputs and the additive noise, so
	// an assessment is reproducible. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// NoiseStd adds Gaussian per-sample measurement noise to the
	// simulated traces so t statistics are comparable to measured ones.
	// Zero runs noiseless; a negative value is rejected.
	NoiseStd  float64 `json:"noise_std,omitempty"`
	TimeoutMS int64   `json:"timeout_ms,omitempty"`
}

type tvlaResponse struct {
	TracesPerGroup int  `json:"traces_per_group"`
	Samples        int  `json:"samples"`
	Leaks          bool `json:"leaks"`
	// MaxAbsT is the peak |t|; LeakyPoints the sample indices above the
	// 4.5 TVLA threshold (capped at 1024 entries; LeakyCount is exact).
	MaxAbsT     float64 `json:"max_abs_t"`
	LeakyCount  int     `json:"leaky_count"`
	LeakyPoints []int   `json:"leaky_points,omitempty"`
}

// maxTVLATraces caps traces_per_group.
const maxTVLATraces = 256

// maxLeakyPoints bounds the response size; AES traces have tens of
// thousands of samples and heavy leakage can flag most of them.
const maxLeakyPoints = 1024

func decodeBlock(name, s string) ([16]byte, error) {
	var b [16]byte
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != 16 {
		return b, errors.New(name + " must be 32 hex characters (16 bytes)")
	}
	copy(b[:], raw)
	return b, nil
}

// finiteT makes a t statistic JSON-encodable. Noiseless simulated
// traces of the fixed group are bit-identical, so their variance is
// exactly zero and Welch's t degenerates: ±Inf (means differ — maximal
// evidence, clamped to MaxFloat64) or NaN (everything identical — no
// evidence, reported as 0). encoding/json rejects both spellings.
func finiteT(v float64) float64 {
	switch {
	case math.IsNaN(v):
		return 0
	case math.IsInf(v, 0):
		return math.MaxFloat64
	default:
		return v
	}
}

func (s *Server) handleTVLA(w http.ResponseWriter, r *http.Request) {
	var req tvlaRequest
	if status, err := s.decodeRequest(w, r, &req); status != 0 {
		writeError(w, status, "decode: %v", err)
		return
	}
	key, err := decodeBlock("key_hex", req.KeyHex)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	fixed, err := decodeBlock("fixed_hex", req.FixedHex)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.TracesPerGroup < 2 || req.TracesPerGroup > maxTVLATraces {
		writeError(w, http.StatusBadRequest,
			"traces_per_group must be in [2, %d]", maxTVLATraces)
		return
	}
	if req.NoiseStd < 0 {
		writeError(w, http.StatusBadRequest, "noise_std must be non-negative")
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req.TimeoutMS))
	defer cancel()

	var res *leakage.TVLAResult
	j := &job{
		ctx:      ctx,
		done:     make(chan struct{}),
		endpoint: "tvla",
		run: func(ctx context.Context, sess *core.Session) (int, error) {
			cycles := 0
			noise := rand.New(rand.NewSource(seed + 1))
			// The source simulates through the worker's pooled session with
			// the request context threaded in, so cancelling the request
			// aborts the campaign mid-trace.
			src := func(input [16]byte) ([]float64, error) {
				prog, err := aes.BuildProgram(key, input)
				if err != nil {
					return nil, err
				}
				sig, err := sess.SimulateProgramContext(ctx, prog.Words)
				if err != nil {
					return nil, err
				}
				cycles += sess.Cycles()
				s.met.tvlaTraces.Add(1)
				if req.NoiseStd > 0 {
					for i := range sig {
						sig[i] += req.NoiseStd * noise.NormFloat64()
					}
				}
				return sig, nil
			}
			// Each trace folds into the stream and is discarded; the final
			// statistic extraction gets its own span and histogram. Collect
			// is leakage.TVLA's pair loop, so the result equals the library's.
			st := leakage.NewTVLAStream()
			if err := st.Collect(src, fixed, rand.New(rand.NewSource(seed)), req.TracesPerGroup); err != nil {
				return cycles, err
			}
			lane := obs.NextLane()
			start := time.Now()
			obs.Begin(spanTVLAAnalysis, lane)
			var err error
			res, err = st.Snapshot()
			obs.End(spanTVLAAnalysis, lane)
			s.met.tvlaAnalysis.Observe(time.Since(start).Seconds())
			return cycles, err
		},
	}
	if err := s.sched.submit(j); err != nil {
		s.shed(w, err)
		return
	}
	<-j.done
	if j.err != nil {
		s.writeSimError(w, j.err)
		return
	}
	resp := tvlaResponse{
		TracesPerGroup: res.Traces,
		Samples:        len(res.T),
		Leaks:          res.Leaks(),
		MaxAbsT:        finiteT(res.MaxAbsT),
		LeakyCount:     len(res.LeakyPoints),
		LeakyPoints:    res.LeakyPoints,
	}
	if len(resp.LeakyPoints) > maxLeakyPoints {
		resp.LeakyPoints = resp.LeakyPoints[:maxLeakyPoints]
	}
	writeJSON(w, http.StatusOK, resp)
}
