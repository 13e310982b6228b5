package isa

import "testing"

// referenceRTypeOps and referenceDecodeOP are TryDecode's OP-opcode
// path as it was before opTable: a linear search over the R-type
// mnemonics with one encTable lookup each. Kept as the oracle
// TestTryDecodeOPWordsMatchSearch holds the table to.
var referenceRTypeOps = [...]Op{ADD, SUB, SLL, SLT, SLTU, XOR, SRL, SRA, OR, AND,
	MUL, MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU}

func referenceDecodeOP(word uint32) (Inst, bool) {
	rd := Reg((word >> 7) & 0x1F)
	funct3 := (word >> 12) & 0x7
	rs1 := Reg((word >> 15) & 0x1F)
	rs2 := Reg((word >> 20) & 0x1F)
	funct7 := (word >> 25) & 0x7F
	for _, op := range referenceRTypeOps {
		e := encTable[op]
		if e.funct3 == funct3 && e.funct7 == funct7 {
			return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}, true
		}
	}
	return Inst{}, false
}

// TestTryDecodeOPWordsMatchSearch decodes every funct7 × funct3 pair of
// the OP major opcode, each under several register fields, and holds
// the table-driven decode to the linear search it replaced.
func TestTryDecodeOPWordsMatchSearch(t *testing.T) {
	regs := [][3]uint32{{0, 0, 0}, {1, 2, 3}, {31, 17, 5}, {5, 31, 31}}
	valid := 0
	for funct7 := uint32(0); funct7 < 128; funct7++ {
		for funct3 := uint32(0); funct3 < 8; funct3++ {
			for _, r := range regs {
				word := opcOp | r[0]<<7 | funct3<<12 | r[1]<<15 | r[2]<<20 | funct7<<25
				got, gotOK := TryDecode(word)
				want, wantOK := referenceDecodeOP(word)
				if got != want || gotOK != wantOK {
					t.Fatalf("word %#08x (funct7 %#b, funct3 %#b): TryDecode = %v, %v; search = %v, %v",
						word, funct7, funct3, got, gotOK, want, wantOK)
				}
				if gotOK {
					valid++
				}
			}
		}
	}
	if want := len(referenceRTypeOps) * len(regs); valid != want {
		t.Fatalf("%d valid OP words, want %d", valid, want)
	}
}
