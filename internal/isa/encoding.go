package isa

import "fmt"

// RISC-V major opcodes (bits 6:0).
const (
	opcLUI    = 0b0110111
	opcAUIPC  = 0b0010111
	opcJAL    = 0b1101111
	opcJALR   = 0b1100111
	opcBranch = 0b1100011
	opcLoad   = 0b0000011
	opcStore  = 0b0100011
	opcOpImm  = 0b0010011
	opcOp     = 0b0110011
	opcMisc   = 0b0001111
	opcSystem = 0b1110011
)

// enc carries the fixed fields of one mnemonic's encoding.
type enc struct {
	opcode uint32
	funct3 uint32
	funct7 uint32 // R-type and shift-immediate only
}

var encTable = map[Op]enc{
	ADD:    {opcOp, 0b000, 0b0000000},
	SUB:    {opcOp, 0b000, 0b0100000},
	SLL:    {opcOp, 0b001, 0b0000000},
	SLT:    {opcOp, 0b010, 0b0000000},
	SLTU:   {opcOp, 0b011, 0b0000000},
	XOR:    {opcOp, 0b100, 0b0000000},
	SRL:    {opcOp, 0b101, 0b0000000},
	SRA:    {opcOp, 0b101, 0b0100000},
	OR:     {opcOp, 0b110, 0b0000000},
	AND:    {opcOp, 0b111, 0b0000000},
	MUL:    {opcOp, 0b000, 0b0000001},
	MULH:   {opcOp, 0b001, 0b0000001},
	MULHSU: {opcOp, 0b010, 0b0000001},
	MULHU:  {opcOp, 0b011, 0b0000001},
	DIV:    {opcOp, 0b100, 0b0000001},
	DIVU:   {opcOp, 0b101, 0b0000001},
	REM:    {opcOp, 0b110, 0b0000001},
	REMU:   {opcOp, 0b111, 0b0000001},

	ADDI:  {opcOpImm, 0b000, 0},
	SLTI:  {opcOpImm, 0b010, 0},
	SLTIU: {opcOpImm, 0b011, 0},
	XORI:  {opcOpImm, 0b100, 0},
	ORI:   {opcOpImm, 0b110, 0},
	ANDI:  {opcOpImm, 0b111, 0},
	SLLI:  {opcOpImm, 0b001, 0b0000000},
	SRLI:  {opcOpImm, 0b101, 0b0000000},
	SRAI:  {opcOpImm, 0b101, 0b0100000},

	LB:  {opcLoad, 0b000, 0},
	LH:  {opcLoad, 0b001, 0},
	LW:  {opcLoad, 0b010, 0},
	LBU: {opcLoad, 0b100, 0},
	LHU: {opcLoad, 0b101, 0},

	SB: {opcStore, 0b000, 0},
	SH: {opcStore, 0b001, 0},
	SW: {opcStore, 0b010, 0},

	BEQ:  {opcBranch, 0b000, 0},
	BNE:  {opcBranch, 0b001, 0},
	BLT:  {opcBranch, 0b100, 0},
	BGE:  {opcBranch, 0b101, 0},
	BLTU: {opcBranch, 0b110, 0},
	BGEU: {opcBranch, 0b111, 0},

	LUI:   {opcLUI, 0, 0},
	AUIPC: {opcAUIPC, 0, 0},
	JAL:   {opcJAL, 0, 0},
	JALR:  {opcJALR, 0b000, 0},

	ECALL:  {opcSystem, 0b000, 0},
	EBREAK: {opcSystem, 0b000, 0},
	FENCE:  {opcMisc, 0b000, 0},
}

// immRange describes the encodable immediate interval for a format.
func immRange(f Format) (min, max int32) {
	switch f {
	case FormatI:
		return -2048, 2047
	case FormatS:
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
	e, ok := encTable[i.Op]
	if !ok {
		return 0, fmt.Errorf("isa: cannot encode %v", i.Op)
	}
	if !i.Rd.Valid() || !i.Rs1.Valid() || !i.Rs2.Valid() {
		return 0, fmt.Errorf("isa: register out of range in %v", i)
	}
	f := i.Op.Format()
	if f != FormatR && i.Op != SLLI && i.Op != SRLI && i.Op != SRAI {
		if min, max := immRange(f); i.Imm < min || i.Imm > max {
			return 0, fmt.Errorf("isa: immediate %d out of range [%d,%d] for %v", i.Imm, min, max, i.Op)
		}
	}
	rd := uint32(i.Rd) << 7
	rs1 := uint32(i.Rs1) << 15
	rs2 := uint32(i.Rs2) << 20
	imm := uint32(i.Imm)

	switch f {
	case FormatR:
		return e.opcode | rd | e.funct3<<12 | rs1 | rs2 | e.funct7<<25, nil
	case FormatI:
		switch i.Op {
		case SLLI, SRLI, SRAI:
			if i.Imm < 0 || i.Imm > 31 {
				return 0, fmt.Errorf("isa: shift amount %d out of range for %v", i.Imm, i.Op)
			}
			return e.opcode | rd | e.funct3<<12 | rs1 | (imm&0x1F)<<20 | e.funct7<<25, nil
		case ECALL:
			return e.opcode, nil
		case EBREAK:
			return e.opcode | 1<<20, nil
		case FENCE:
			return e.opcode, nil
		}
		return e.opcode | rd | e.funct3<<12 | rs1 | (imm&0xFFF)<<20, nil
	case FormatS:
		lo := (imm & 0x1F) << 7
		hi := ((imm >> 5) & 0x7F) << 25
		return e.opcode | lo | e.funct3<<12 | rs1 | rs2 | hi, nil
	case FormatB:
		if i.Imm&1 != 0 {
			return 0, fmt.Errorf("isa: branch offset %d is odd", i.Imm)
		}
		b11 := ((imm >> 11) & 1) << 7
		b41 := ((imm >> 1) & 0xF) << 8
		b105 := ((imm >> 5) & 0x3F) << 25
		b12 := ((imm >> 12) & 1) << 31
		return e.opcode | b11 | b41 | e.funct3<<12 | rs1 | rs2 | b105 | b12, nil
	case FormatU:
		return e.opcode | rd | (imm&0xFFFFF)<<12, nil
	case FormatJ:
		if i.Imm&1 != 0 {
			return 0, fmt.Errorf("isa: jump offset %d is odd", i.Imm)
		}
		b1912 := ((imm >> 12) & 0xFF) << 12
		b11 := ((imm >> 11) & 1) << 20
		b101 := ((imm >> 1) & 0x3FF) << 21
		b20 := ((imm >> 20) & 1) << 31
		return e.opcode | rd | b1912 | b11 | b101 | b20, nil
	}
	return 0, fmt.Errorf("isa: unknown format for %v", i.Op)
}

// MustEncode is Encode for statically known-good instructions; it panics on
// error and exists for tests and table construction.
func MustEncode(i Inst) uint32 {
	w, err := Encode(i)
	if err != nil {
		panic(err)
	}
	return w
}

// opTable maps an OP-major-opcode word to its mnemonic by funct7 class
// (see funct7Class) and funct3; OpInvalid marks the unassigned slots.
// It is built once from encTable, which stays the one source of the
// encodings, so the fetch path decodes an OP word with one array index.
var opTable = func() (t [3][8]Op) {
	for op, e := range encTable {
		if e.opcode == opcOp {
			t[funct7Class(e.funct7)][e.funct3] = op
		}
	}
	return t
}()

// funct7Class returns opTable's row for an OP word's funct7: 0 for the
// base integer ops, 1 for the M extension, 2 for SUB/SRA, and -1 for
// every other funct7, which no RV32IM instruction uses.
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

// Decode parses a 32-bit machine word into an Inst. Words that do not
// correspond to an RV32IM instruction return a descriptive error; callers
// on allocation-sensitive paths that only need validity should use
// TryDecode instead.
func Decode(word uint32) (Inst, error) {
	in, ok := TryDecode(word)
	if !ok {
		return Inst{}, decodeError(word)
	}
	return in, nil
}

// decodeError reconstructs the reason a word failed TryDecode. Split from
// the decoder so the hot fetch path never pays for error formatting.
func decodeError(word uint32) error {
	opcode := word & 0x7F
	funct3 := (word >> 12) & 0x7
	funct7 := (word >> 25) & 0x7F
	switch opcode {
	case opcJALR:
		return fmt.Errorf("isa: bad JALR funct3 %#b in %#08x", funct3, word)
	case opcBranch:
		return fmt.Errorf("isa: bad branch funct3 %#b in %#08x", funct3, word)
	case opcLoad:
		return fmt.Errorf("isa: bad load funct3 %#b in %#08x", funct3, word)
	case opcStore:
		return fmt.Errorf("isa: bad store funct3 %#b in %#08x", funct3, word)
	case opcOpImm:
		if funct3 == 0b001 {
			return fmt.Errorf("isa: bad SLLI funct7 %#b in %#08x", funct7, word)
		}
		return fmt.Errorf("isa: bad shift funct7 %#b in %#08x", funct7, word)
	case opcOp:
		return fmt.Errorf("isa: bad OP funct3/funct7 %#b/%#b in %#08x", funct3, funct7, word)
	case opcSystem:
		return fmt.Errorf("isa: unsupported SYSTEM word %#08x", word)
	case opcMisc:
		return fmt.Errorf("isa: non-canonical FENCE word %#08x", word)
	}
	return fmt.Errorf("isa: unknown opcode %#07b in word %#08x", opcode, word)
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
		cls := funct7Class(funct7)
		if cls < 0 || opTable[cls][funct3] == OpInvalid {
			return Inst{}, false
		}
		return Inst{Op: opTable[cls][funct3], Rd: rd, Rs1: rs1, Rs2: rs2}, true
	case opcMisc:
		// Only the canonical FENCE word is accepted: the simulator treats
		// every fence as a full fence, never emits ordering-hint bits, and
		// does not implement FENCE.I (funct3 001). Strictness here keeps
		// Encode/TryDecode a bijection, which FuzzDecodeConsistency pins.
		if word == opcMisc {
			return Inst{Op: FENCE}, true
		}
		return Inst{}, false
	case opcSystem:
		// ECALL and EBREAK are exact 32-bit words; every other SYSTEM
		// encoding (the CSR space, WFI, ...) is unsupported and must be
		// rejected, not folded into ECALL.
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
