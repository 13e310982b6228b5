package isa

import "fmt"

// immRange describes the encodable immediate interval for a format.
func immRange(f Format) (min, max int32) {
	switch f {
	case FormatI, FormatS:
		return -2048, 2047
	case FormatB:
		return -4096, 4094 // even offsets only
	case FormatU:
		return 0, 0xFFFFF // 20-bit unsigned field
	case FormatJ:
		return -(1 << 20), (1 << 20) - 2 // even offsets only
	}
	return 0, 0
}

// Encode produces the 32-bit machine word for the instruction. It validates
// field ranges and returns a descriptive error for immediates that do not
// fit or offsets with illegal alignment.
func Encode(i Inst) (uint32, error) {
	if !i.Op.Valid() {
		return 0, fmt.Errorf("isa: cannot encode %v", i.Op)
	}
	if !i.Rd.Valid() || !i.Rs1.Valid() || !i.Rs2.Valid() {
		return 0, fmt.Errorf("isa: register out of range in %v", i)
	}
	f := i.Op.Format()
	if f != FormatR && !i.Op.isShiftImm() {
		if min, max := immRange(f); i.Imm < min || i.Imm > max {
			return 0, fmt.Errorf("isa: immediate %d out of range [%d,%d] for %v", i.Imm, min, max, i.Op)
		}
	}
	r := ops[i.Op]
	opc, funct3, funct7 := uint32(r.opcode), uint32(r.funct3)<<12, uint32(r.funct7)<<25
	rd := uint32(i.Rd) << 7
	rs1 := uint32(i.Rs1) << 15
	rs2 := uint32(i.Rs2) << 20
	imm := uint32(i.Imm)

	switch f {
	case FormatR:
		return opc | rd | funct3 | rs1 | rs2 | funct7, nil
	case FormatI:
		switch {
		case i.Op.isShiftImm():
			if i.Imm < 0 || i.Imm > 31 {
				return 0, fmt.Errorf("isa: shift amount %d out of range for %v", i.Imm, i.Op)
			}
			return opc | rd | funct3 | rs1 | (imm&0x1F)<<20 | funct7, nil
		case i.Op == EBREAK:
			return opc | 1<<20, nil
		case i.Op == ECALL, i.Op == FENCE:
			return opc, nil
		}
		return opc | rd | funct3 | rs1 | (imm&0xFFF)<<20, nil
	case FormatS:
		lo := (imm & 0x1F) << 7
		hi := ((imm >> 5) & 0x7F) << 25
		return opc | lo | funct3 | rs1 | rs2 | hi, nil
	case FormatB:
		if i.Imm&1 != 0 {
			return 0, fmt.Errorf("isa: branch offset %d is odd", i.Imm)
		}
		b11 := ((imm >> 11) & 1) << 7
		b41 := ((imm >> 1) & 0xF) << 8
		b105 := ((imm >> 5) & 0x3F) << 25
		b12 := ((imm >> 12) & 1) << 31
		return opc | b11 | b41 | funct3 | rs1 | rs2 | b105 | b12, nil
	case FormatU:
		return opc | rd | (imm&0xFFFFF)<<12, nil
	case FormatJ:
		if i.Imm&1 != 0 {
			return 0, fmt.Errorf("isa: jump offset %d is odd", i.Imm)
		}
		b1912 := ((imm >> 12) & 0xFF) << 12
		b11 := ((imm >> 11) & 1) << 20
		b101 := ((imm >> 1) & 0x3FF) << 21
		b20 := ((imm >> 20) & 1) << 31
		return opc | rd | b1912 | b11 | b101 | b20, nil
	}
	return 0, fmt.Errorf("isa: unknown format for %v", i.Op)
}

// isShiftImm reports whether o is a shift by an immediate, whose
// imm[11:5] is a funct7 field and imm[4:0] the shift amount.
//
//emsim:noalloc
func (o Op) isShiftImm() bool { return o == SLLI || o == SRLI || o == SRAI }

// MustEncode is Encode for statically known-good instructions; it panics on
// error and exists for tests and table construction.
func MustEncode(i Inst) uint32 {
	w, err := Encode(i)
	if err != nil {
		panic(err)
	}
	return w
}

// decodeTable names a word's mnemonic by its major opcode (bits 6:2;
// bits 1:0 are 11 in every RV32IM word), funct3 and funct7 class (see
// funct7Class), built once from ops. Where funct3 or funct7 are
// immediate bits, the mnemonic sits at index 0 and TryDecode reads it
// there. SYSTEM and MISC-MEM are left out: TryDecode matches them by word.
var decodeTable = func() (t [32][8][3]Op) {
	for _, o := range AllOps() {
		if r := ops[o]; r.opcode != opcSystem && r.opcode != opcMisc {
			t[r.opcode>>2][r.funct3][funct7Class(uint32(r.funct7))] = o
		}
	}
	return t
}()

// funct7Class returns decodeTable's column for a funct7 field: 0 for
// the base integer ops, 1 for the M extension, 2 for SUB/SRA/SRAI, and
// -1 for every other funct7, which no RV32IM instruction uses.
//
//emsim:noalloc
func funct7Class(funct7 uint32) int {
	switch funct7 {
	case 0b0000000:
		return 0
	case 0b0000001:
		return 1
	case 0b0100000:
		return 2
	}
	return -1
}

//emsim:noalloc
func signExtend(v uint32, bits uint) int32 {
	shift := 32 - bits
	return int32(v<<shift) >> shift
}

// Decode parses a 32-bit machine word into an Inst. A word that is not an
// RV32IM instruction returns an error naming it and its fields; callers
// on allocation-sensitive paths that only need validity should use
// TryDecode instead.
func Decode(word uint32) (Inst, error) {
	in, ok := TryDecode(word)
	if !ok {
		return Inst{}, fmt.Errorf("isa: invalid instruction word 0x%08x (opcode 0b%07b, funct3 0b%03b, funct7 0b%07b)",
			word, word&0x7F, (word>>12)&0x7, word>>25)
	}
	return in, nil
}

// TryDecode parses a 32-bit machine word into an Inst, reporting ok=false
// for words that are not valid RV32IM encodings. Unlike Decode it never
// allocates, which matters to the pipeline's fetch path: a core draining
// after a halt keeps presenting unprogrammed (zero) words to the decoder
// every cycle.
//
//emsim:noalloc
func TryDecode(word uint32) (Inst, bool) {
	opcode := word & 0x7F
	rd := Reg((word >> 7) & 0x1F)
	funct3 := (word >> 12) & 0x7
	rs1 := Reg((word >> 15) & 0x1F)
	rs2 := Reg((word >> 20) & 0x1F)
	funct7 := (word >> 25) & 0x7F
	t := &decodeTable[(word>>2)&0x1F] // opcode bits 6:2
	op := t[funct3][0]

	switch opcode {
	case opcLUI, opcAUIPC:
		// Bits 31:12 are all immediate; the opcode alone names the op.
		return Inst{Op: t[0][0], Rd: rd, Imm: int32(word >> 12)}, true
	case opcJAL:
		imm := ((word>>31)&1)<<20 | ((word>>12)&0xFF)<<12 | ((word>>20)&1)<<11 | ((word>>21)&0x3FF)<<1
		return Inst{Op: t[0][0], Rd: rd, Imm: signExtend(imm, 21)}, true
	case opcJALR, opcLoad, opcOpImm:
		if op.isShiftImm() {
			cls := funct7Class(funct7)
			if cls < 0 || t[funct3][cls] == OpInvalid {
				return Inst{}, false
			}
			return Inst{Op: t[funct3][cls], Rd: rd, Rs1: rs1, Imm: int32(rs2)}, true
		}
		if op == OpInvalid {
			return Inst{}, false
		}
		return Inst{Op: op, Rd: rd, Rs1: rs1, Imm: signExtend(word>>20, 12)}, true
	case opcBranch:
		if op == OpInvalid {
			return Inst{}, false
		}
		imm := ((word>>31)&1)<<12 | ((word>>7)&1)<<11 | ((word>>25)&0x3F)<<5 | ((word>>8)&0xF)<<1
		return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: signExtend(imm, 13)}, true
	case opcStore:
		if op == OpInvalid {
			return Inst{}, false
		}
		imm := ((word>>25)&0x7F)<<5 | (word>>7)&0x1F
		return Inst{Op: op, Rs1: rs1, Rs2: rs2, Imm: signExtend(imm, 12)}, true
	case opcOp:
		cls := funct7Class(funct7)
		if cls < 0 || t[funct3][cls] == OpInvalid {
			return Inst{}, false
		}
		return Inst{Op: t[funct3][cls], Rd: rd, Rs1: rs1, Rs2: rs2}, true
	case opcMisc, opcSystem:
		// FENCE, ECALL and EBREAK decode only from the exact words Encode
		// gives them. The simulator treats every fence as a full fence;
		// FENCE.I, fence hint bits and every other SYSTEM word (the CSR
		// space, WFI, ...) are rejected, not folded into one of the three,
		// which keeps Encode/TryDecode the bijection FuzzDecodeConsistency
		// pins.
		switch word {
		case opcMisc:
			return Inst{Op: FENCE}, true
		case opcSystem:
			return Inst{Op: ECALL}, true
		case 1<<20 | opcSystem:
			return Inst{Op: EBREAK}, true
		}
	}
	return Inst{}, false
}
