package isa

import "testing"

// referenceTryDecode is TryDecode as it was before the ops table: one
// hand-written funct3 (and funct7) switch per opcode class, with the OP
// class written out as two [8]Op rows and a SUB/SRA switch. It states
// the encodings apart from ops, so it is the oracle
// TestTryDecodeMatchesReference holds the table-driven decoder to.
func referenceTryDecode(word uint32) (Inst, bool) {
	opcode := word & 0x7F
	rd := Reg((word >> 7) & 0x1F)
	funct3 := (word >> 12) & 0x7
	rs1 := Reg((word >> 15) & 0x1F)
	rs2 := Reg((word >> 20) & 0x1F)
	funct7 := (word >> 25) & 0x7F

	switch opcode {
	case opcLUI:
		return Inst{Op: LUI, Rd: rd, Imm: int32((word >> 12) & 0xFFFFF)}, true
	case opcAUIPC:
		return Inst{Op: AUIPC, Rd: rd, Imm: int32((word >> 12) & 0xFFFFF)}, true
	case opcJAL:
		imm := ((word>>31)&1)<<20 | ((word>>12)&0xFF)<<12 | ((word>>20)&1)<<11 | ((word>>21)&0x3FF)<<1
		return Inst{Op: JAL, Rd: rd, Imm: signExtend(imm, 21)}, true
	case opcJALR:
		if funct3 != 0 {
			return Inst{}, false
		}
		return Inst{Op: JALR, Rd: rd, Rs1: rs1, Imm: signExtend(word>>20, 12)}, true
	case opcBranch:
		var op Op
		switch funct3 {
		case 0b000:
			op = BEQ
		case 0b001:
			op = BNE
		case 0b100:
			op = BLT
		case 0b101:
			op = BGE
		case 0b110:
			op = BLTU
		case 0b111:
			op = BGEU
		default:
			return Inst{}, false
		}
		imm := ((word>>31)&1)<<12 | ((word>>7)&1)<<11 | ((word>>25)&0x3F)<<5 | ((word>>8)&0xF)<<1
		return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: signExtend(imm, 13)}, true
	case opcLoad:
		var op Op
		switch funct3 {
		case 0b000:
			op = LB
		case 0b001:
			op = LH
		case 0b010:
			op = LW
		case 0b100:
			op = LBU
		case 0b101:
			op = LHU
		default:
			return Inst{}, false
		}
		return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: signExtend(word>>20, 12)}, true
	case opcStore:
		var op Op
		switch funct3 {
		case 0b000:
			op = SB
		case 0b001:
			op = SH
		case 0b010:
			op = SW
		default:
			return Inst{}, false
		}
		imm := ((word>>25)&0x7F)<<5 | (word>>7)&0x1F
		return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: signExtend(imm, 12)}, true
	case opcOpImm:
		imm := signExtend(word>>20, 12)
		switch funct3 {
		case 0b000:
			return Inst{Op: ADDI, Rd: rd, Rs1: rs1, Imm: imm}, true
		case 0b010:
			return Inst{Op: SLTI, Rd: rd, Rs1: rs1, Imm: imm}, true
		case 0b011:
			return Inst{Op: SLTIU, Rd: rd, Rs1: rs1, Imm: imm}, true
		case 0b100:
			return Inst{Op: XORI, Rd: rd, Rs1: rs1, Imm: imm}, true
		case 0b110:
			return Inst{Op: ORI, Rd: rd, Rs1: rs1, Imm: imm}, true
		case 0b111:
			return Inst{Op: ANDI, Rd: rd, Rs1: rs1, Imm: imm}, true
		case 0b001:
			if funct7 != 0 {
				return Inst{}, false
			}
			return Inst{Op: SLLI, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, true
		case 0b101:
			switch funct7 {
			case 0b0000000:
				return Inst{Op: SRLI, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, true
			case 0b0100000:
				return Inst{Op: SRAI, Rd: rd, Rs1: rs1, Imm: int32(rs2)}, true
			}
			return Inst{}, false
		}
	case opcOp:
		var op Op
		switch funct7 {
		case 0b0000000:
			op = [8]Op{ADD, SLL, SLT, SLTU, XOR, SRL, OR, AND}[funct3]
		case 0b0000001:
			op = [8]Op{MUL, MULH, MULHSU, MULHU, DIV, DIVU, REM, REMU}[funct3]
		case 0b0100000:
			switch funct3 {
			case 0b000:
				op = SUB
			case 0b101:
				op = SRA
			default:
				return Inst{}, false
			}
		default:
			return Inst{}, false
		}
		return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2}, true
	case opcMisc:
		if word == opcMisc {
			return Inst{Op: FENCE}, true
		}
		return Inst{}, false
	case opcSystem:
		switch word {
		case opcSystem:
			return Inst{Op: ECALL}, true
		case 1<<20 | opcSystem:
			return Inst{Op: EBREAK}, true
		}
		return Inst{}, false
	}
	return Inst{}, false
}

// TestTryDecodeMatchesReference decodes every major opcode × funct3 ×
// funct7 combination, each under several register-field fills (about
// 10⁶ words), and holds the table-driven TryDecode to the reference
// decoder: the same instruction and the same verdict on validity.
func TestTryDecodeMatchesReference(t *testing.T) {
	// Fills of rd, rs1 and rs2. {0, 0, 1} makes EBREAK; the rest cover
	// every immediate bit those fields carry, set and clear.
	fills := [][3]uint32{{0, 0, 0}, {0, 0, 1}, {1, 2, 3}, {31, 31, 31},
		{21, 10, 5}, {10, 21, 26}, {5, 17, 31}, {31, 0, 16}}
	var seen [1 << 8]bool
	valid := 0
	for opcode := uint32(0); opcode < 128; opcode++ {
		for funct3 := uint32(0); funct3 < 8; funct3++ {
			for funct7 := uint32(0); funct7 < 128; funct7++ {
				for _, f := range fills {
					word := opcode | f[0]<<7 | funct3<<12 | f[1]<<15 | f[2]<<20 | funct7<<25
					got, ok := TryDecode(word)
					want, wantOK := referenceTryDecode(word)
					if got != want || ok != wantOK {
						t.Fatalf("word %#08x: TryDecode = %+v, %v; reference = %+v, %v",
							word, got, ok, want, wantOK)
					}
					if ok {
						seen[got.Op] = true
						valid++
					}
				}
			}
		}
	}
	for _, op := range AllOps() {
		if !seen[op] {
			t.Errorf("no word decoded to %v", op)
		}
	}
	t.Logf("%d valid words", valid)
}
