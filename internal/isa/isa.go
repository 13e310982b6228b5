// Package isa defines the RV32IM instruction set used throughout EMSim: the
// instruction mnemonics, binary encodings, register names, and the
// instruction-cluster taxonomy from Table I of the paper.
//
// The package is deliberately self-contained: it knows nothing about the
// pipeline or the EM model. Encoding follows the RISC-V unprivileged spec
// v2.2 for the base RV32I set plus the "M" multiply/divide extension, which
// is exactly the ISA the paper's FPGA processor implements.
package isa

import "fmt"

// Reg identifies one of the 32 integer registers x0..x31.
type Reg uint8

// Symbolic names for the registers in the standard RISC-V ABI.
const (
	X0 Reg = iota
	X1
	X2
	X3
	X4
	X5
	X6
	X7
	X8
	X9
	X10
	X11
	X12
	X13
	X14
	X15
	X16
	X17
	X18
	X19
	X20
	X21
	X22
	X23
	X24
	X25
	X26
	X27
	X28
	X29
	X30
	X31

	Zero = X0 // hard-wired zero
	RA   = X1 // return address
	SP   = X2 // stack pointer
	GP   = X3 // global pointer
	TP   = X4 // thread pointer
	T0   = X5 // temporaries
	T1   = X6
	T2   = X7
	S0   = X8 // saved registers / frame pointer
	S1   = X9
	A0   = X10 // argument / return registers
	A1   = X11
	A2   = X12
	A3   = X13
	A4   = X14
	A5   = X15
	A6   = X16
	A7   = X17
	S2   = X18
	S3   = X19
	S4   = X20
	S5   = X21
	S6   = X22
	S7   = X23
	S8   = X24
	S9   = X25
	S10  = X26
	S11  = X27
	T3   = X28
	T4   = X29
	T5   = X30
	T6   = X31
)

// NumRegs is the size of the integer register file.
const NumRegs = 32

var abiNames = [NumRegs]string{
	"zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2",
	"s0", "s1", "a0", "a1", "a2", "a3", "a4", "a5",
	"a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7",
	"s8", "s9", "s10", "s11", "t3", "t4", "t5", "t6",
}

// String returns the ABI name of the register ("zero", "ra", "a0", ...).
func (r Reg) String() string {
	if int(r) < len(abiNames) {
		return abiNames[r]
	}
	return fmt.Sprintf("x%d", uint8(r))
}

// Valid reports whether r names an architectural register.
//
//emsim:noalloc
func (r Reg) Valid() bool { return r < NumRegs }

// Op enumerates every RV32IM mnemonic the simulator understands.
type Op uint8

// The instruction mnemonics of RV32IM. The order groups instructions by
// encoding format; Format returns the format of each.
const (
	// OpInvalid is the zero Op; it never decodes from a valid word.
	OpInvalid Op = iota

	// RV32I register-register (R-type).
	ADD
	SUB
	SLL
	SLT
	SLTU
	XOR
	SRL
	SRA
	OR
	AND

	// M extension (R-type).
	MUL
	MULH
	MULHSU
	MULHU
	DIV
	DIVU
	REM
	REMU

	// Register-immediate (I-type).
	ADDI
	SLTI
	SLTIU
	XORI
	ORI
	ANDI
	SLLI
	SRLI
	SRAI

	// Loads (I-type).
	LB
	LH
	LW
	LBU
	LHU

	// Stores (S-type).
	SB
	SH
	SW

	// Branches (B-type).
	BEQ
	BNE
	BLT
	BGE
	BLTU
	BGEU

	// Upper-immediate (U-type).
	LUI
	AUIPC

	// Jumps.
	JAL  // J-type
	JALR // I-type

	// System (I-type, imm selects the call).
	ECALL
	EBREAK

	// FENCE is accepted and executed as a no-op, as on the paper's
	// single-hart in-order core.
	FENCE

	numOps
)

// NumOps is the number of valid mnemonics (excluding OpInvalid).
const NumOps = int(numOps) - 1

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

// opInfo is one mnemonic's row in ops: its assembler name, the fixed
// fields of its encoding and its Table I cluster.
type opInfo struct {
	name    string
	opcode  uint8
	funct3  uint8
	funct7  uint8 // R-type and shift-immediate only
	cluster Cluster
}

// ops states RV32IM once: the encoder, the decoder, the formats, the
// predicates and the cluster maps all read it. It has a row for every Op
// value, so any Op indexes it without a bounds check; the rows past FENCE
// are zero and read like OpInvalid (format I, cluster ALU). Loads are
// filed under ClusterCache, the cache-hit case. ECALL, EBREAK and FENCE
// are outside Table I and filed under ClusterALU.
var ops = [1 << 8]opInfo{
	OpInvalid: {name: "invalid"},

	ADD:    {"add", opcOp, 0b000, 0b0000000, ClusterALU},
	SUB:    {"sub", opcOp, 0b000, 0b0100000, ClusterALU},
	SLL:    {"sll", opcOp, 0b001, 0b0000000, ClusterShift},
	SLT:    {"slt", opcOp, 0b010, 0b0000000, ClusterALU},
	SLTU:   {"sltu", opcOp, 0b011, 0b0000000, ClusterALU},
	XOR:    {"xor", opcOp, 0b100, 0b0000000, ClusterALU},
	SRL:    {"srl", opcOp, 0b101, 0b0000000, ClusterShift},
	SRA:    {"sra", opcOp, 0b101, 0b0100000, ClusterShift},
	OR:     {"or", opcOp, 0b110, 0b0000000, ClusterALU},
	AND:    {"and", opcOp, 0b111, 0b0000000, ClusterALU},
	MUL:    {"mul", opcOp, 0b000, 0b0000001, ClusterMulDiv},
	MULH:   {"mulh", opcOp, 0b001, 0b0000001, ClusterMulDiv},
	MULHSU: {"mulhsu", opcOp, 0b010, 0b0000001, ClusterMulDiv},
	MULHU:  {"mulhu", opcOp, 0b011, 0b0000001, ClusterMulDiv},
	DIV:    {"div", opcOp, 0b100, 0b0000001, ClusterMulDiv},
	DIVU:   {"divu", opcOp, 0b101, 0b0000001, ClusterMulDiv},
	REM:    {"rem", opcOp, 0b110, 0b0000001, ClusterMulDiv},
	REMU:   {"remu", opcOp, 0b111, 0b0000001, ClusterMulDiv},

	ADDI:  {"addi", opcOpImm, 0b000, 0, ClusterALU},
	SLTI:  {"slti", opcOpImm, 0b010, 0, ClusterALU},
	SLTIU: {"sltiu", opcOpImm, 0b011, 0, ClusterALU},
	XORI:  {"xori", opcOpImm, 0b100, 0, ClusterALU},
	ORI:   {"ori", opcOpImm, 0b110, 0, ClusterALU},
	ANDI:  {"andi", opcOpImm, 0b111, 0, ClusterALU},
	SLLI:  {"slli", opcOpImm, 0b001, 0b0000000, ClusterShift},
	SRLI:  {"srli", opcOpImm, 0b101, 0b0000000, ClusterShift},
	SRAI:  {"srai", opcOpImm, 0b101, 0b0100000, ClusterShift},

	LB:  {"lb", opcLoad, 0b000, 0, ClusterCache},
	LH:  {"lh", opcLoad, 0b001, 0, ClusterCache},
	LW:  {"lw", opcLoad, 0b010, 0, ClusterCache},
	LBU: {"lbu", opcLoad, 0b100, 0, ClusterCache},
	LHU: {"lhu", opcLoad, 0b101, 0, ClusterCache},

	SB: {"sb", opcStore, 0b000, 0, ClusterStore},
	SH: {"sh", opcStore, 0b001, 0, ClusterStore},
	SW: {"sw", opcStore, 0b010, 0, ClusterStore},

	BEQ:  {"beq", opcBranch, 0b000, 0, ClusterBranch},
	BNE:  {"bne", opcBranch, 0b001, 0, ClusterBranch},
	BLT:  {"blt", opcBranch, 0b100, 0, ClusterBranch},
	BGE:  {"bge", opcBranch, 0b101, 0, ClusterBranch},
	BLTU: {"bltu", opcBranch, 0b110, 0, ClusterBranch},
	BGEU: {"bgeu", opcBranch, 0b111, 0, ClusterBranch},

	LUI:   {"lui", opcLUI, 0, 0, ClusterALU},
	AUIPC: {"auipc", opcAUIPC, 0, 0, ClusterALU},
	JAL:   {"jal", opcJAL, 0, 0, ClusterALU},
	JALR:  {"jalr", opcJALR, 0b000, 0, ClusterALU},

	ECALL:  {"ecall", opcSystem, 0b000, 0, ClusterALU},
	EBREAK: {"ebreak", opcSystem, 0b000, 0, ClusterALU},
	FENCE:  {"fence", opcMisc, 0b000, 0, ClusterALU},
}

// String returns the lower-case assembler mnemonic.
func (o Op) String() string {
	if o < numOps {
		return ops[o].name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined mnemonic.
//
//emsim:noalloc
func (o Op) Valid() bool { return o > OpInvalid && o < numOps }

// Format identifies the RISC-V encoding format of an instruction.
type Format uint8

// The six base encoding formats.
const (
	FormatR Format = iota // register-register
	FormatI               // register-immediate, loads, JALR, system
	FormatS               // stores
	FormatB               // conditional branches
	FormatU               // LUI / AUIPC
	FormatJ               // JAL
)

func (f Format) String() string {
	switch f {
	case FormatR:
		return "R"
	case FormatI:
		return "I"
	case FormatS:
		return "S"
	case FormatB:
		return "B"
	case FormatU:
		return "U"
	case FormatJ:
		return "J"
	}
	return "?"
}

// Format returns the encoding format of the mnemonic, which its major
// opcode fixes.
//
//emsim:noalloc
func (o Op) Format() Format {
	switch ops[o].opcode {
	case opcOp:
		return FormatR
	case opcStore:
		return FormatS
	case opcBranch:
		return FormatB
	case opcLUI, opcAUIPC:
		return FormatU
	case opcJAL:
		return FormatJ
	}
	return FormatI
}

// IsLoad reports whether o reads data memory.
//
//emsim:noalloc
func (o Op) IsLoad() bool { return ops[o].opcode == opcLoad }

// IsStore reports whether o writes data memory.
//
//emsim:noalloc
func (o Op) IsStore() bool { return ops[o].opcode == opcStore }

// IsBranch reports whether o is a conditional branch.
//
//emsim:noalloc
func (o Op) IsBranch() bool { return ops[o].opcode == opcBranch }

// IsJump reports whether o is an unconditional control transfer.
//
//emsim:noalloc
func (o Op) IsJump() bool { return o == JAL || o == JALR }

// IsMulDiv reports whether o uses the multi-cycle multiply/divide unit.
//
//emsim:noalloc
func (o Op) IsMulDiv() bool { return ops[o].opcode == opcOp && ops[o].funct7 == 0b0000001 }

// IsSystem reports whether o is ECALL or EBREAK, which halt the simulated
// core (the paper models bare-metal execution only).
//
//emsim:noalloc
func (o Op) IsSystem() bool { return o == ECALL || o == EBREAK }

// WritesRd reports whether the instruction architecturally writes a
// destination register. Writes to x0 are still "writes" at this level; the
// register file discards them.
//
//emsim:noalloc
func (o Op) WritesRd() bool {
	switch o.Format() {
	case FormatS, FormatB:
		return false
	}
	return !o.IsSystem() && o != FENCE
}

// ReadsRs1 reports whether the instruction reads its rs1 field.
//
//emsim:noalloc
func (o Op) ReadsRs1() bool {
	switch o.Format() {
	case FormatU, FormatJ:
		return false
	}
	return !o.IsSystem() && o != FENCE
}

// ReadsRs2 reports whether the instruction reads its rs2 field.
//
//emsim:noalloc
func (o Op) ReadsRs2() bool {
	switch o.Format() {
	case FormatR, FormatS, FormatB:
		return true
	}
	return false
}

// Inst is a decoded instruction. The zero value is an invalid instruction.
//
// Imm holds the sign-extended immediate for I/S/B/U/J formats (for U format
// it is the *un-shifted* 20-bit value placed in bits 31:12 at encode time;
// Value semantics are handled by the pipeline).
type Inst struct {
	Op  Op
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int32
}

// NOP is the canonical no-operation: addi x0, x0, 0. The paper uses NOP as
// the minimum-activity baseline instruction.
var NOP = Inst{Op: ADDI, Rd: X0, Rs1: X0, Imm: 0}

// IsNOP reports whether the instruction is the canonical NOP encoding.
//
//emsim:noalloc
func (i Inst) IsNOP() bool {
	return i.Op == ADDI && i.Rd == X0 && i.Rs1 == X0 && i.Imm == 0
}

// String renders the instruction in assembler syntax.
func (i Inst) String() string {
	switch i.Op.Format() {
	case FormatR:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, i.Rd, i.Rs1, i.Rs2)
	case FormatI:
		switch {
		case i.Op.IsLoad():
			return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Rs1)
		case i.Op == JALR:
			return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rd, i.Imm, i.Rs1)
		case i.Op.IsSystem() || i.Op == FENCE:
			return i.Op.String()
		default:
			return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rd, i.Rs1, i.Imm)
		}
	case FormatS:
		return fmt.Sprintf("%s %s, %d(%s)", i.Op, i.Rs2, i.Imm, i.Rs1)
	case FormatB:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, i.Rs1, i.Rs2, i.Imm)
	case FormatU:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	case FormatJ:
		return fmt.Sprintf("%s %s, %d", i.Op, i.Rd, i.Imm)
	}
	return "invalid"
}
