// Package mem implements the memory hierarchy of the simulated processor: a
// flat little-endian byte-addressed main memory and a configurable cache
// with the latency model from §II-A of the paper (a cache hit costs one
// extra cycle; a miss costs two further cycles on top of that).
package mem

import "fmt"

// Memory is a sparse little-endian byte-addressable main memory. Reads of
// unwritten locations return zero, matching an initialized FPGA block RAM.
type Memory struct {
	pages map[uint32]*page
}

const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

type page [pageSize]byte

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*page)}
}

//emsim:noalloc
func (m *Memory) pageFor(addr uint32, create bool) *page {
	idx := addr >> pageBits
	p := m.pages[idx]
	if p == nil && create {
		//emsim:ignore noalloc pages allocate once on first touch; Reset zeroes them in place so reruns stay steady-state
		p = new(page)
		m.pages[idx] = p
	}
	return p
}

// LoadByte returns the byte at addr.
//
//emsim:noalloc
func (m *Memory) LoadByte(addr uint32) byte {
	p := m.pageFor(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// StoreByte stores b at addr.
//
//emsim:noalloc
func (m *Memory) StoreByte(addr uint32, b byte) {
	m.pageFor(addr, true)[addr&pageMask] = b
}

// ReadWord returns the 32-bit little-endian word at addr. The address need
// not be aligned; the simulated core enforces its own alignment policy.
//
//emsim:noalloc
func (m *Memory) ReadWord(addr uint32) uint32 {
	return uint32(m.LoadByte(addr)) |
		uint32(m.LoadByte(addr+1))<<8 |
		uint32(m.LoadByte(addr+2))<<16 |
		uint32(m.LoadByte(addr+3))<<24
}

// WriteWord stores a 32-bit little-endian word at addr.
//
//emsim:noalloc
func (m *Memory) WriteWord(addr uint32, v uint32) {
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
	m.StoreByte(addr+2, byte(v>>16))
	m.StoreByte(addr+3, byte(v>>24))
}

// ReadHalf returns the 16-bit little-endian halfword at addr.
//
//emsim:noalloc
func (m *Memory) ReadHalf(addr uint32) uint16 {
	return uint16(m.LoadByte(addr)) | uint16(m.LoadByte(addr+1))<<8
}

// WriteHalf stores a 16-bit little-endian halfword at addr.
//
//emsim:noalloc
func (m *Memory) WriteHalf(addr uint32, v uint16) {
	m.StoreByte(addr, byte(v))
	m.StoreByte(addr+1, byte(v>>8))
}

// LoadWords copies 32-bit words into memory starting at addr.
//
//emsim:noalloc
func (m *Memory) LoadWords(addr uint32, words []uint32) {
	for i, w := range words {
		m.WriteWord(addr+uint32(4*i), w)
	}
}

// Reset discards all contents. Already-allocated pages are zeroed in
// place rather than released, so a load/run/reset cycle that touches the
// same addresses reaches a steady state with no allocations — the
// property the reusable simulation Session relies on.
//
//emsim:noalloc
func (m *Memory) Reset() {
	for _, p := range m.pages {
		*p = page{}
	}
}

// CacheConfig describes the data cache geometry and the latency model.
// The paper's processor has a 32 KB cache; an access that hits stalls the
// pipeline for HitLatency extra cycles (1 in the paper) and a miss stalls
// for HitLatency+MissPenalty cycles (1+2 = 3 total in the paper, visible as
// "two extra stall cycles" in Figure 6).
type CacheConfig struct {
	SizeBytes   int // total capacity (default 32 KiB)
	LineBytes   int // line size (default 32)
	Ways        int // associativity (default 2)
	HitLatency  int // extra stall cycles on a hit (default 1)
	MissPenalty int // further stall cycles on a miss (default 2)
}

// DefaultCacheConfig returns the configuration described in §II-A.
func DefaultCacheConfig() CacheConfig {
	return CacheConfig{
		SizeBytes:   32 * 1024,
		LineBytes:   32,
		Ways:        2,
		HitLatency:  1,
		MissPenalty: 2,
	}
}

func (c CacheConfig) validate() error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("mem: cache size %d is not a positive power of two", c.SizeBytes)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("mem: line size %d is not a positive power of two", c.LineBytes)
	case c.Ways <= 0:
		return fmt.Errorf("mem: ways %d must be positive", c.Ways)
	case c.SizeBytes < c.LineBytes*c.Ways:
		return fmt.Errorf("mem: cache of %d bytes cannot hold %d ways of %d-byte lines",
			c.SizeBytes, c.Ways, c.LineBytes)
	case c.HitLatency < 0 || c.MissPenalty < 0:
		return fmt.Errorf("mem: negative latency")
	}
	return nil
}

// Cache models a set-associative write-through data cache with LRU
// replacement. It tracks only tags (the backing Memory holds the data),
// which is sufficient for timing and for the hit/miss events the EM model
// needs.
type Cache struct {
	cfg     CacheConfig
	sets    int
	lineOff uint32 // log2(LineBytes)
	// Way w of set s is entry s*Ways+w of each slice.
	tags    []uint32
	valid   []bool
	lruTick []uint64
	tick    uint64

	hits, misses uint64
}

// NewCache builds a cache from cfg, or returns an error for impossible
// geometries.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	if sets == 0 || sets&(sets-1) != 0 {
		return nil, fmt.Errorf("mem: derived set count %d is not a power of two", sets)
	}
	c := &Cache{cfg: cfg, sets: sets}
	for sz := cfg.LineBytes; sz > 1; sz >>= 1 {
		c.lineOff++
	}
	c.tags = make([]uint32, sets*cfg.Ways)
	c.valid = make([]bool, sets*cfg.Ways)
	c.lruTick = make([]uint64, sets*cfg.Ways)
	return c, nil
}

// MustNewCache is NewCache for known-good configurations; it panics on error.
func MustNewCache(cfg CacheConfig) *Cache {
	c, err := NewCache(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// index returns the first entry of addr's set and addr's tag.
func (c *Cache) index(addr uint32) (base int, tag uint32) {
	line := addr >> c.lineOff
	return (int(line) & (c.sets - 1)) * c.cfg.Ways, line / uint32(c.sets)
}

// Access simulates one access to addr and returns whether it hit plus the
// number of extra stall cycles the pipeline must insert. Misses allocate
// the line (loads and stores both allocate, write-through keeps memory
// authoritative so no writeback traffic is modeled).
//
//emsim:noalloc
func (c *Cache) Access(addr uint32) (hit bool, stallCycles int) {
	c.tick++
	base, tag := c.index(addr)
	end := base + c.cfg.Ways
	for i := base; i < end; i++ {
		if c.valid[i] && c.tags[i] == tag {
			c.lruTick[i] = c.tick
			c.hits++
			return true, c.cfg.HitLatency
		}
	}
	// Miss: fill the LRU (or first invalid) way.
	victim := base
	for i := base; i < end; i++ {
		if !c.valid[i] {
			victim = i
			break
		}
		if c.lruTick[i] < c.lruTick[victim] {
			victim = i
		}
	}
	c.tags[victim] = tag
	c.valid[victim] = true
	c.lruTick[victim] = c.tick
	c.misses++
	return false, c.cfg.HitLatency + c.cfg.MissPenalty
}

// Probe reports whether addr would hit, without changing cache state.
//
//emsim:noalloc
func (c *Cache) Probe(addr uint32) bool {
	base, tag := c.index(addr)
	for i := base; i < base+c.cfg.Ways; i++ {
		if c.valid[i] && c.tags[i] == tag {
			return true
		}
	}
	return false
}

// Flush invalidates every line.
//
//emsim:noalloc
func (c *Cache) Flush() {
	clear(c.valid)
	clear(c.lruTick)
	c.tick = 0
}

// Stats returns cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.hits, c.misses }

// ResetStats zeroes the hit/miss counters without touching cache contents.
//
//emsim:noalloc
func (c *Cache) ResetStats() { c.hits, c.misses = 0, 0 }
