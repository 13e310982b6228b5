package cpu

import "testing"

var allocSinkInt int

// TestTraceAccessorsDoNotAllocate pins the //emsim:noalloc contract of
// the per-cycle trace accessors (LatchWords, FeatureBits, FlipCount,
// Cluster) by reading every stage of every streamed cycle of a
// warm run — the exact access pattern the amplitude model performs.
func TestTraceAccessorsDoNotAllocate(t *testing.T) {
	words := streamProgram(t)
	c := MustNew(DefaultConfig())
	sink := CycleSinkFunc(func(cy *Cycle) error {
		for s := Stage(0); s < NumStages; s++ {
			st := &cy.Stages[s]
			allocSinkInt += LatchWords(s) + FeatureBits(s) + st.FlipCount() + int(st.Cluster())
		}
		return nil
	})
	if err := c.RunProgramTo(words, sink); err != nil { // warm memory pages
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := c.RunProgramTo(words, sink); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("trace accessors allocate %.1f times per run, want 0", allocs)
	}
}
