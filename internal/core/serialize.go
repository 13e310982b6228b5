package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"

	"emsim/internal/cpu"
)

// The paper envisions trained models being shipped "as a library (similar
// to that of for other properties such as power, timing)" (§V-C): train
// once per board, distribute the parameters, simulate everywhere. Save
// and LoadModel implement that with a stable JSON encoding.

// modelFileVersion guards the on-disk format.
const modelFileVersion = 1

type modelFile struct {
	Version int    `json:"version"`
	Model   *Model `json:"model"`
}

// Save writes the trained model to w as JSON.
func (m *Model) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(modelFile{Version: modelFileVersion, Model: m})
}

// SaveFile writes the model to path. A failure to flush the file on
// close is reported like a failed write.
func (m *Model) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadModel reads a model previously written with Save and validates its
// invariants.
func LoadModel(r io.Reader) (*Model, error) {
	var mf modelFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&mf); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if mf.Version != modelFileVersion {
		return nil, fmt.Errorf("core: model file version %d, want %d", mf.Version, modelFileVersion)
	}
	m := mf.Model
	if m == nil {
		return nil, fmt.Errorf("core: model file has no model")
	}
	if m.SamplesPerCycle < 1 || m.SamplesPerCycle > maxSamplesPerCycle {
		return nil, fmt.Errorf("core: loaded model has invalid SamplesPerCycle %d (want 1..%d)",
			m.SamplesPerCycle, maxSamplesPerCycle)
	}
	if m.Kernel.SupportCycles > maxSupportCycles {
		return nil, fmt.Errorf("core: loaded model kernel spans %d cycles (max %d)",
			m.Kernel.SupportCycles, maxSupportCycles)
	}
	taps, err := m.Kernel.Taps(m.SamplesPerCycle)
	if err != nil {
		return nil, fmt.Errorf("core: loaded model has an unusable kernel: %w", err)
	}
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		am := &m.Activity[s]
		if len(am.Selected) != len(am.Coef) {
			return nil, fmt.Errorf("core: stage %v activity model: %d bits vs %d coefficients",
				s, len(am.Selected), len(am.Coef))
		}
		for _, bit := range am.Selected {
			if bit < 0 || bit >= cpu.FeatureBits(s) {
				return nil, fmt.Errorf("core: stage %v activity bit %d out of range", s, bit)
			}
		}
	}
	// The factor 2 is headroom for the rounding of the real computation,
	// which the exact-arithmetic bound does not cover.
	if b := m.sampleBound(taps); math.IsNaN(b) || math.IsInf(2*b, 0) {
		return nil, fmt.Errorf("core: loaded model parameters can render non-finite samples (bound %g)", b)
	}
	return m, nil
}

// Caps on a loaded model's sampling geometry. In-tree models use 4–32
// samples per cycle and a 3-cycle kernel; the caps keep a hostile file
// from sizing the tap table, and every signal rendered with it, at will.
const (
	maxSamplesPerCycle = 256
	maxSupportCycles   = 16
)

// sampleBound bounds the magnitude of every value the model can compute
// for any trace, under any ablation switch: the per-cycle amplitude of
// Equ. 9 with its intermediate sums, and the overlap-add of those
// amplitudes through taps. It is NaN or +Inf exactly when some
// parameter is, or when the parameters can overflow.
func (m *Model) sampleBound(taps []float64) float64 {
	ampMax := 0.0
	for _, row := range m.Amp {
		for _, a := range row {
			ampMax = math.Max(ampMax, math.Abs(a))
		}
	}
	perStage, single := 0.0, 0.0
	for s := cpu.Stage(0); s < cpu.NumStages; s++ {
		coef := 0.0
		for _, c := range m.Activity[s].Coef {
			coef += math.Abs(c)
		}
		beta := 1.0
		if m.Beta != nil {
			beta = math.Max(beta, math.Abs(m.Beta[s]))
		}
		// NumStages·ampMax covers the stage-averaged sum before its
		// division; the factor 2 covers the Equ. 7 flip scaling.
		u := 2 * (cpu.NumStages*ampMax + coef) * beta
		perStage += math.Abs(m.MISO[s]) * u
		single += u
	}
	x := math.Max(math.Abs(m.MISOIntercept)+perStage, math.Abs(m.SingleIntercept)+math.Abs(m.SingleM)*single)
	tapSum := 1.0 // at least 1, so the result also bounds x itself
	for _, t := range taps {
		tapSum += math.Abs(t)
	}
	return x * tapSum
}

// LoadModelFile reads a model from path.
func LoadModelFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadModel(f)
}

// LoadOrTrainFile returns the model cached at path. When no file exists
// there, it calls train and saves the result to path; an empty path
// trains without saving. Any other failure to load, such as a corrupt
// file or one from another model-file version, is returned naming the
// path, and the file is left as it was. trained reports whether train
// ran.
func LoadOrTrainFile(path string, train func() (*Model, error)) (m *Model, trained bool, err error) {
	if path != "" {
		if m, err = LoadModelFile(path); err == nil {
			return m, false, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, false, fmt.Errorf("core: read model file %s: %w", path, err)
		}
	}
	if m, err = train(); err != nil {
		return nil, true, err
	}
	if path != "" {
		if err = m.SaveFile(path); err != nil {
			return nil, true, fmt.Errorf("core: save model file %s: %w", path, err)
		}
	}
	return m, true, nil
}
