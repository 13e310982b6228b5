package asm

import (
	"fmt"
	"strings"
	"testing"
)

// maxFuzzImageBytes bounds .space/.zero reservations so the fuzzer
// cannot spend its whole budget zero-filling gigabyte images; the
// directive's logic is fully exercised well below this.
const maxFuzzImageBytes = 1 << 16

// pathologicalSpace reports whether src contains a .space/.zero
// directive reserving more than maxFuzzImageBytes. Oversized inputs are
// skipped, not failed: they are valid programs, just useless to fuzz.
func pathologicalSpace(src string) bool {
	for _, raw := range strings.Split(src, "\n") {
		fields := strings.Fields(stripComment(raw))
		for i, tok := range fields {
			low := strings.ToLower(strings.TrimSuffix(tok, ":"))
			if low != ".space" && low != ".zero" {
				continue
			}
			if i+1 >= len(fields) {
				continue
			}
			n, err := parseImm(strings.TrimSuffix(fields[i+1], ","))
			if err == nil && n > maxFuzzImageBytes {
				return true
			}
		}
	}
	return false
}

// FuzzAsmRoundTrip feeds arbitrary text to the assembler and checks the
// two invariants the rest of the repository leans on:
//
//  1. Assemble never panics: every rejection is a structured error
//     carrying the "asm:" prefix (and a line number where one exists).
//  2. Accepted programs survive a disassemble→reassemble round trip:
//     rebuilding a source from per-word DisassembleWord lines (plus a
//     .org for relocated images) reproduces the exact words and origin.
//     This pins the assembler and disassembler as inverses on the
//     accepted subset, the same way FuzzDecodeConsistency pins
//     Encode/Decode one layer down.
func FuzzAsmRoundTrip(f *testing.F) {
	seeds := []string{
		// Valid programs covering every operand shape the parser has.
		"nop\n",
		"    li t0, 10\nloop:\n    addi t0, t0, -1\n    bnez t0, loop\n    ebreak\n",
		".org 0x100\nstart:\n    lw a0, 4(sp)\n    sw a0, 8(sp)\n    jalr zero, 0(ra)\n",
		"lui a0, 1048575\nauipc a1, 16\njal ra, 8\nnop\nret\n",
		"mul t0, t1, t2\ndiv t3, t0, t1\nsrai t4, t3, 3\necall\n",
		".word 0xdeadbeef, 0x13\n.space 8\n.align 4\n",
		"a: .word a\n    beq zero, zero, a\n",
		"# comment only\n// another\n",
		// Malformed inputs that must error, not panic.
		"addi t0\n",
		"bonk t0, t1, t2\n",
		"lw a0, 4(sp\n",
		".org 3\nnop\n",
		"dup:\ndup:\n    nop\n",
		"j nowhere\n",
		"li t9, 1\n",
		".space -1\n",
		"addi t0, t1, 99999999\n",
		": empty\n",
		// Inputs that once assembled to a different program: a bad
		// destination register became x0, and a number wider than 32
		// bits was cut to its low 32 bits.
		"neg bogus, t1\n",
		"not q9, t0\n",
		"seqz q9, t0\nsnez q9, t0\n",
		"addi t0, zero, 4294967297\n",
		"lw t0, 4294967296(sp)\n",
		"beq t0, t1, 4294967304\n",
		".word 0x1ffffffff\n",
		".org 0x100000000\n",
		"la a0, 5\n",
		"j 5oops\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 || pathologicalSpace(src) {
			t.Skip()
		}
		p, err := Assemble(src)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "asm:") {
				t.Fatalf("unstructured assembler error %q for input %q", err, src)
			}
			return
		}
		// The full Disassemble listing is for humans (address and word
		// columns); round-trip through the parseable per-word form.
		var b strings.Builder
		if p.Origin != 0 {
			fmt.Fprintf(&b, ".org 0x%x\n", p.Origin)
		}
		for i, w := range p.Words {
			b.WriteString(DisassembleWord(p.Origin+uint32(4*i), w))
			b.WriteByte('\n')
		}
		p2, err := Assemble(b.String())
		if err != nil {
			t.Fatalf("reassembling disassembly failed: %v\noriginal input: %q\ndisassembly:\n%s", err, src, b.String())
		}
		if p2.Origin != p.Origin {
			t.Fatalf("round trip moved origin %#x -> %#x for input %q", p.Origin, p2.Origin, src)
		}
		if len(p2.Words) != len(p.Words) {
			t.Fatalf("round trip changed image size %d -> %d for input %q\ndisassembly:\n%s",
				len(p.Words), len(p2.Words), src, b.String())
		}
		for i := range p.Words {
			if p.Words[i] != p2.Words[i] {
				t.Fatalf("round trip changed word %d: %#08x -> %#08x (%q)\ninput: %q",
					i, p.Words[i], p2.Words[i], DisassembleWord(p.Origin+uint32(4*i), p.Words[i]), src)
			}
		}
	})
}
