package mem

import (
	"testing"
	"testing/quick"
)

func TestMemoryByteRoundTrip(t *testing.T) {
	m := NewMemory()
	m.StoreByte(0x1000, 0xAB)
	if got := m.LoadByte(0x1000); got != 0xAB {
		t.Errorf("ReadByte = %#x, want 0xAB", got)
	}
	if got := m.LoadByte(0x1001); got != 0 {
		t.Errorf("unwritten byte = %#x, want 0", got)
	}
}

func TestMemoryWordLittleEndian(t *testing.T) {
	m := NewMemory()
	m.WriteWord(0x2000, 0x11223344)
	if got := m.LoadByte(0x2000); got != 0x44 {
		t.Errorf("low byte = %#x, want 0x44 (little endian)", got)
	}
	if got := m.LoadByte(0x2003); got != 0x11 {
		t.Errorf("high byte = %#x, want 0x11", got)
	}
	if got := m.ReadWord(0x2000); got != 0x11223344 {
		t.Errorf("ReadWord = %#x", got)
	}
	if got := m.ReadHalf(0x2000); got != 0x3344 {
		t.Errorf("ReadHalf = %#x", got)
	}
}

func TestMemoryCrossPageAccess(t *testing.T) {
	m := NewMemory()
	addr := uint32(pageSize - 2) // word spans two pages
	m.WriteWord(addr, 0xDEADBEEF)
	if got := m.ReadWord(addr); got != 0xDEADBEEF {
		t.Errorf("cross-page word = %#x", got)
	}
}

func TestMemoryWordRoundTripProperty(t *testing.T) {
	m := NewMemory()
	f := func(addr, v uint32) bool {
		m.WriteWord(addr, v)
		return m.ReadWord(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMemoryLoadBytesAndReset(t *testing.T) {
	m := NewMemory()
	for i, b := range []byte{1, 2, 3, 4} {
		m.StoreByte(0x80+uint32(i), b)
	}
	if m.ReadWord(0x80) != 0x04030201 {
		t.Errorf("stored bytes read back as word %#x", m.ReadWord(0x80))
	}
	m.LoadWords(0x100, []uint32{0xAABBCCDD, 0x11223344})
	if m.ReadWord(0x104) != 0x11223344 {
		t.Errorf("LoadWords word = %#x", m.ReadWord(0x104))
	}
	m.Reset()
	if m.ReadWord(0x80) != 0 || m.ReadWord(0x100) != 0 {
		t.Error("Reset did not clear memory")
	}
}

func TestCacheConfigValidation(t *testing.T) {
	bad := []CacheConfig{
		{SizeBytes: 0, LineBytes: 32, Ways: 2},
		{SizeBytes: 3000, LineBytes: 32, Ways: 2},
		{SizeBytes: 1024, LineBytes: 0, Ways: 2},
		{SizeBytes: 1024, LineBytes: 24, Ways: 2},
		{SizeBytes: 1024, LineBytes: 32, Ways: 0},
		{SizeBytes: 64, LineBytes: 64, Ways: 2},
		{SizeBytes: 1024, LineBytes: 32, Ways: 2, HitLatency: -1},
	}
	for _, cfg := range bad {
		if _, err := NewCache(cfg); err == nil {
			t.Errorf("NewCache(%+v) unexpectedly succeeded", cfg)
		}
	}
	if _, err := NewCache(DefaultCacheConfig()); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestCacheHitMissLatencies(t *testing.T) {
	c := MustNewCache(DefaultCacheConfig())

	hit, stall := c.Access(0x1000)
	if hit || stall != 3 {
		t.Errorf("first access: hit=%v stall=%d, want miss/3 (1 hit latency + 2 miss penalty)", hit, stall)
	}
	hit, stall = c.Access(0x1004) // same line
	if !hit || stall != 1 {
		t.Errorf("same-line access: hit=%v stall=%d, want hit/1", hit, stall)
	}
	hit, stall = c.Access(0x1000)
	if !hit || stall != 1 {
		t.Errorf("repeat access: hit=%v stall=%d, want hit/1", hit, stall)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	// Tiny cache: 2 sets x 2 ways x 16-byte lines = 64 bytes.
	c := MustNewCache(CacheConfig{SizeBytes: 64, LineBytes: 16, Ways: 2, HitLatency: 1, MissPenalty: 2})

	// Three distinct lines mapping to set 0 (stride = lineBytes*sets = 32).
	a, b, d := uint32(0), uint32(64), uint32(128)
	c.Access(a) // miss, fills way 0
	c.Access(b) // miss, fills way 1
	c.Access(a) // hit, refreshes a
	if hit, _ := c.Access(d); hit {
		t.Fatal("line d should miss")
	}
	// d must have evicted b (LRU), not a.
	if !c.Probe(a) {
		t.Error("a was evicted but was most recently used")
	}
	if c.Probe(b) {
		t.Error("b should have been evicted as LRU")
	}
	if !c.Probe(d) {
		t.Error("d should now be resident")
	}
}

func TestCacheProbeDoesNotMutate(t *testing.T) {
	c := MustNewCache(DefaultCacheConfig())
	if c.Probe(0x40) {
		t.Fatal("empty cache probe hit")
	}
	if c.Probe(0x40) {
		t.Fatal("probe must not allocate")
	}
	hits, misses := c.Stats()
	if hits != 0 || misses != 0 {
		t.Errorf("probe changed stats: %d/%d", hits, misses)
	}
}

func TestCacheFlush(t *testing.T) {
	c := MustNewCache(DefaultCacheConfig())
	c.Access(0x5000)
	c.Flush()
	if c.Probe(0x5000) {
		t.Error("line survived Flush")
	}
}

func TestCacheStats(t *testing.T) {
	c := MustNewCache(DefaultCacheConfig())
	c.Access(0x100) // miss
	c.Access(0x100) // hit
	c.Access(0x104) // hit
	hits, misses := c.Stats()
	if hits != 2 || misses != 1 {
		t.Errorf("stats = %d hits / %d misses, want 2/1", hits, misses)
	}
	c.ResetStats()
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Error("ResetStats failed")
	}
}

func TestCacheSetIsolation(t *testing.T) {
	// Accesses in different sets must not evict each other even when the
	// cache is direct-mapped.
	c := MustNewCache(CacheConfig{SizeBytes: 128, LineBytes: 16, Ways: 1, HitLatency: 1, MissPenalty: 2})
	for line := uint32(0); line < 8; line++ {
		c.Access(line * 16)
	}
	for line := uint32(0); line < 8; line++ {
		if !c.Probe(line * 16) {
			t.Errorf("line %d missing; sets are interfering", line)
		}
	}
}

func TestCachePropertySameLineAlwaysHitsAfterAccess(t *testing.T) {
	c := MustNewCache(DefaultCacheConfig())
	f := func(addr uint32, off uint8) bool {
		c.Access(addr)
		line := addr &^ uint32(c.Config().LineBytes-1)
		hit, _ := c.Access(line + uint32(off)%uint32(c.Config().LineBytes))
		return hit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c := MustNewCache(DefaultCacheConfig())
	for i := 0; i < b.N; i++ {
		c.Access(uint32(i*64) & 0xFFFF)
	}
}

func BenchmarkMemoryReadWord(b *testing.B) {
	m := NewMemory()
	m.WriteWord(0x1000, 42)
	for i := 0; i < b.N; i++ {
		m.ReadWord(0x1000)
	}
}
