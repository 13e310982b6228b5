package par

import (
	"encoding/binary"
	"hash/fnv"
)

// Stream is the seed of the keyed random stream (seed, lane, index): a
// pure function of the work's identity, whichever worker draws it.
//
//emsim:noalloc
func Stream(seed int64, lane, index uint64) uint64 {
	return Mix(uint64(seed)*0x9E3779B97F4A7C15 ^ lane*0xD1B54A32D192ED03 ^ index*0x8CB92BA72F3D8DD7)
}

// Mix is the splitmix64 finalizer, which decorrelates adjacent inputs.
//
//emsim:noalloc
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// HashWords is the 64-bit FNV-1a hash of the words, each little-endian:
// the content hash of a program image.
func HashWords(words []uint32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, w := range words {
		binary.LittleEndian.PutUint32(b[:], w)
		h.Write(b[:])
	}
	return h.Sum64()
}
