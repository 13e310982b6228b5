package mem

import "testing"

var (
	allocSinkU32  uint32
	allocSinkBool bool
)

// TestMemoryAnnotatedFuncsDoNotAllocate pins the //emsim:noalloc
// contract of the sparse memory at runtime: once a page exists (pageFor
// allocates exactly once on first touch), every access and a full Reset
// are allocation-free.
func TestMemoryAnnotatedFuncsDoNotAllocate(t *testing.T) {
	m := NewMemory()
	words := make([]uint32, 4)
	// Warm up: first touch of each page allocates its backing array.
	m.StoreByte(0x100, 1)
	m.WriteWord(0x2000, 42)
	allocs := testing.AllocsPerRun(100, func() {
		m.StoreByte(0x100, 7)
		m.WriteHalf(0x102, 0xBEEF)
		m.WriteWord(0x104, 0xDEADBEEF)
		allocSinkU32 = uint32(m.LoadByte(0x100)) + uint32(m.ReadHalf(0x102)) + m.ReadWord(0x104)
		m.LoadWords(0x2000, words)
		m.Reset()
	})
	if allocs > 0 {
		t.Errorf("warm memory operations allocate %.1f times per run, want 0", allocs)
	}
}

// TestCacheAnnotatedFuncsDoNotAllocate pins the cache model's
// //emsim:noalloc contract: lookups, probes, flushes and stat resets on a
// constructed cache never allocate.
func TestCacheAnnotatedFuncsDoNotAllocate(t *testing.T) {
	c, err := NewCache(DefaultCacheConfig())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for addr := uint32(0); addr < 4096; addr += 64 {
			hit, stall := c.Access(addr)
			allocSinkBool = hit && stall == 0
			allocSinkBool = c.Probe(addr)
		}
		c.Flush()
		c.ResetStats()
	})
	if allocs > 0 {
		t.Errorf("cache operations allocate %.1f times per run, want 0", allocs)
	}
}

var allocSinkCache *Cache

// TestNewCacheAllocations pins NewCache to one backing array per field:
// the Cache itself and its tag, valid and LRU slices, whatever the set
// count. A cache is built per simulated core, so per-set slices would
// dominate a core's set-up.
func TestNewCacheAllocations(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		c, err := NewCache(DefaultCacheConfig())
		if err != nil {
			t.Fatal(err)
		}
		allocSinkCache = c
	})
	if allocs > 4 {
		t.Errorf("NewCache allocates %.0f times, want at most 4", allocs)
	}
}
