package asm_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"emsim/internal/aes"
	"emsim/internal/asm"
	"emsim/internal/core"
	"emsim/internal/leakage"
)

// TestParserReassemblesGeneratedPrograms prints every program the
// repository's generators build with the Builder (training mixes, all
// combination groups in both variants, AES images, the SAVAT matrix) as
// a DisassembleWord listing and checks that the text parser reproduces
// each image word for word. Together these programs use every opcode
// the generators emit, so each goes through the parser's operand forms.
func TestParserReassemblesGeneratedPrograms(t *testing.T) {
	images := map[string][]uint32{}
	add := func(name string, words []uint32, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		images[name] = words
	}
	for seed := int64(0); seed < 40; seed++ {
		w, err := core.MixedProgram(rand.New(rand.NewSource(seed)), 50+10*int(seed))
		add(fmt.Sprintf("mixed/%d", seed), w, err)
	}
	for g := 0; g < core.NumGroups; g++ {
		for _, full := range []bool{false, true} {
			w, err := core.CombinationGroup(g, rand.New(rand.NewSource(int64(g))), full)
			add(fmt.Sprintf("group/%d/full=%v", g, full), w, err)
		}
	}
	for i := 0; i < 4; i++ {
		var key, pt [16]byte
		for j := range key {
			key[j], pt[j] = byte(31*i+j), byte(17*i+3*j)
		}
		p, err := aes.BuildProgram(key, pt)
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("aes/%d", i), p.Words, nil)
	}
	for a := leakage.SavatInst(0); a < leakage.NumSavatInsts; a++ {
		for b := leakage.SavatInst(0); b < leakage.NumSavatInsts; b++ {
			w, err := leakage.SavatProgram(a, b, 8, 16)
			add(fmt.Sprintf("savat/%v/%v", a, b), w, err)
		}
	}

	for name, words := range images {
		var src strings.Builder
		for i, w := range words {
			src.WriteString(asm.DisassembleWord(uint32(4*i), w))
			src.WriteByte('\n')
		}
		p, err := asm.Assemble(src.String())
		if err != nil {
			t.Errorf("%s: reassembling its listing: %v", name, err)
			continue
		}
		if len(p.Words) != len(words) {
			t.Errorf("%s: reassembled %d words, want %d", name, len(p.Words), len(words))
			continue
		}
		for i := range words {
			if p.Words[i] != words[i] {
				t.Errorf("%s: word %d (%s) reassembled as %#08x, want %#08x",
					name, i, asm.DisassembleWord(uint32(4*i), words[i]), p.Words[i], words[i])
				break
			}
		}
	}
}
