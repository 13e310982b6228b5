package core

import (
	"fmt"
	"math/rand"

	"emsim/internal/asm"
	"emsim/internal/isa"
)

// This file generates the measurement campaigns of §III/§V-A: all-NOP
// captures for kernel fitting, NOP→inst→NOP sequences with zero operands
// for the baseline amplitudes, the same with random operands for the
// activity-factor regression, and mixed programs for the MISO fit.

// dataBase is where training programs keep their scratch data. Their
// stores land at or above it, so a program's image must end below it,
// or the stores could rewrite its code; the generators reject one that
// would not.
const dataBase = 0x2000

// The largest campaign sizes whose programs end below dataBase for every
// seed. An activity probe program of n instances assembles to at most
// 8+22·n words (the load probe, the widest, takes 22 per instance, and
// the lead-in and EBREAK 8), and a mixed program of n instructions to at
// most n+4 (its last item, a bounded loop, adds up to four instructions
// past n, then EBREAK). TrainOptions.Validate holds a campaign to them,
// so an oversized one fails before its first capture.
const (
	MaxInstancesPerCluster = (dataBase/4 - 1 - 8) / 22
	MaxMixedLength         = dataBase/4 - 1 - 4
)

// belowData returns a generated program's words, or an error if its
// image reaches dataBase.
func belowData(p *asm.Program) ([]uint32, error) {
	if 4*len(p.Words) >= dataBase {
		return nil, fmt.Errorf("core: a %d-word program reaches the scratch data at %#x", len(p.Words), dataBase)
	}
	return p.Words, nil
}

// allNOPProgram returns n NOPs followed by EBREAK.
func allNOPProgram(n int) []uint32 {
	b := asm.NewBuilder()
	b.Nop(n)
	b.I(isa.Ebreak())
	return b.MustAssemble().Words
}

// zeroOperandPrograms builds the §III-B baseline campaign: for each
// cluster representative, NOP → inst → NOP sequences with all operands
// zero (registers reset to 0 at power-on), so only instruction-dependent
// activity remains. Extra variants cover taken branches (flush bubbles)
// and both cache outcomes.
func zeroOperandPrograms() [][]uint32 {
	gap := 8
	wrap := func(build func(b *asm.Builder)) []uint32 {
		b := asm.NewBuilder()
		b.Nop(gap)
		build(b)
		b.Nop(gap)
		b.I(isa.Ebreak())
		return b.MustAssemble().Words
	}
	repeat := func(n int, inst ...isa.Inst) func(b *asm.Builder) {
		return func(b *asm.Builder) {
			for i := 0; i < n; i++ {
				b.I(inst...)
				b.Nop(gap)
			}
		}
	}
	var progs [][]uint32
	// ALU representative.
	progs = append(progs, wrap(repeat(6, isa.Add(isa.X1, isa.X1, isa.X1))))
	// Shift representative.
	progs = append(progs, wrap(repeat(6, isa.Slli(isa.X1, isa.X1, 0))))
	// MUL/DIV representative (stalls the front end for MulLatency).
	progs = append(progs, wrap(repeat(6, isa.Mul(isa.X1, isa.X1, isa.X1))))
	progs = append(progs, wrap(repeat(4, isa.Div(isa.X1, isa.X1, isa.X1))))
	// Store representative.
	progs = append(progs, wrap(repeat(6, isa.Sw(isa.X1, isa.X1, 0))))
	// Loads: same address repeatedly — first access misses (Load
	// cluster), the rest hit (Cache cluster); the trace tells them apart.
	progs = append(progs, wrap(repeat(8, isa.Lw(isa.X1, isa.Zero, 0))))
	// Loads that always miss: a fresh cache line each time.
	progs = append(progs, wrap(func(b *asm.Builder) {
		for i := 0; i < 8; i++ {
			b.I(isa.Lw(isa.X1, isa.Zero, int32(64*i)))
			b.Nop(gap)
		}
	}))
	// Branch, not taken (zero operands keep x1 == x2 == 0, BNE fails).
	progs = append(progs, wrap(repeat(6, isa.Bne(isa.X1, isa.X2, 8))))
	// Branch, taken: BEQ x0,x0 forward — mispredicted at least initially,
	// exercising flush bubbles.
	progs = append(progs, wrap(func(b *asm.Builder) {
		for i := 0; i < 6; i++ {
			b.I(isa.Beq(isa.Zero, isa.Zero, 8))
			b.I(isa.Nop()) // skipped on the taken path
			b.Nop(gap)
		}
	}))
	return progs
}

// randomOperandPrograms builds the §III-B activity campaign: the same
// NOP → inst → NOP structure, but operands, addresses, immediates and
// memory contents are randomized so the data-dependent bit flips span
// their range. Register setup happens well before the probe instruction
// so the pipeline is NOP-quiet around it.
//
// stream supplies the generator for the i-th program of the campaign.
// Each program draws from its own stream, so the campaign's content is a
// function of the stream seeds alone — never of how many draws an
// earlier program consumed. That independence is what lets the trainer
// measure the programs in any order, on any worker, without perturbing
// the campaign.
func randomOperandPrograms(stream func(i int) *rand.Rand, instancesPerCluster int) ([][]uint32, error) {
	gap := 7
	var progs [][]uint32

	build := func(emit func(b *asm.Builder, rng *rand.Rand, i int)) error {
		rng := stream(len(progs))
		b := asm.NewBuilder()
		b.Nop(gap)
		for i := 0; i < instancesPerCluster; i++ {
			emit(b, rng, i)
			b.Nop(gap)
		}
		b.I(isa.Ebreak())
		p, err := b.Assemble()
		if err != nil {
			return err
		}
		words, err := belowData(p)
		if err != nil {
			return err
		}
		progs = append(progs, words)
		return nil
	}
	setRegs := func(b *asm.Builder, rng *rand.Rand) (isa.Reg, isa.Reg) {
		b.Li(isa.T0, int32(rng.Uint32()))
		b.Li(isa.T1, int32(rng.Uint32()))
		b.Nop(gap)
		return isa.T0, isa.T1
	}

	// ALU / Shift / MUL / DIV with random register values.
	for _, op := range []isa.Op{isa.ADD, isa.XOR, isa.SLL, isa.SRL, isa.MUL, isa.DIV} {
		op := op
		if err := build(func(b *asm.Builder, rng *rand.Rand, i int) {
			ra, rb := setRegs(b, rng)
			b.I(isa.Inst{Op: op, Rd: isa.T2, Rs1: ra, Rs2: rb})
		}); err != nil {
			return nil, err
		}
	}
	// Register-immediate ALU with random immediates.
	if err := build(func(b *asm.Builder, rng *rand.Rand, i int) {
		ra, _ := setRegs(b, rng)
		b.I(isa.Addi(isa.T2, ra, int32(rng.Intn(4096)-2048)))
	}); err != nil {
		return nil, err
	}
	// Stores of random data to random slots in the scratch region.
	if err := build(func(b *asm.Builder, rng *rand.Rand, i int) {
		b.Li(isa.T0, int32(rng.Uint32()))
		b.Li(isa.T1, dataBase)
		b.Nop(gap)
		b.I(isa.Sw(isa.T0, isa.T1, int32(4*rng.Intn(256))))
	}); err != nil {
		return nil, err
	}
	// Loads of random data: first populate a slot, then (after the dust
	// settles) load it back; the populating store also adds samples.
	if err := build(func(b *asm.Builder, rng *rand.Rand, i int) {
		off := int32(4 * rng.Intn(256))
		b.Li(isa.T0, int32(rng.Uint32()))
		b.Li(isa.T1, dataBase)
		b.Nop(2)
		b.I(isa.Sw(isa.T0, isa.T1, off))
		b.Nop(gap)
		b.I(isa.Lw(isa.T2, isa.T1, off))
	}); err != nil {
		return nil, err
	}
	// Loads that miss: fresh lines, random offsets within the line.
	if err := build(func(b *asm.Builder, rng *rand.Rand, i int) {
		b.Li(isa.T1, dataBase+0x10000+int32(i)*256)
		b.Nop(gap)
		b.I(isa.Lw(isa.T2, isa.T1, int32(4*rng.Intn(8))))
	}); err != nil {
		return nil, err
	}
	// Branches with random operands (taken and not-taken mixture).
	if err := build(func(b *asm.Builder, rng *rand.Rand, i int) {
		ra, rb := setRegs(b, rng)
		b.I(isa.Bne(ra, rb, 8))
		b.I(isa.Nop())
	}); err != nil {
		return nil, err
	}
	return progs, nil
}

// MixedProgram generates one phase-3 / evaluation program: a dense blend
// of all clusters with random operands, loads/stores confined to the
// scratch region, short forward branches and a couple of bounded loops —
// the "similar to a real program" structure of §V-A. n may be at most
// MaxMixedLength; past it, the image could reach the scratch data.
func MixedProgram(rng *rand.Rand, n int) ([]uint32, error) {
	b := asm.NewBuilder()
	regs := []isa.Reg{isa.T0, isa.T1, isa.T2, isa.T3, isa.S0, isa.S1, isa.A0, isa.A1}
	reg := func() isa.Reg { return regs[rng.Intn(len(regs))] }
	for _, r := range regs {
		b.Li(r, int32(rng.Uint32()))
	}
	b.Li(isa.S2, dataBase) // scratch base pointer
	aluR := []isa.Op{isa.ADD, isa.SUB, isa.XOR, isa.OR, isa.AND, isa.SLT, isa.SLTU,
		isa.SLL, isa.SRL, isa.SRA, isa.MUL, isa.MULH, isa.MULHU, isa.DIV, isa.DIVU, isa.REM, isa.REMU}
	b.Li(isa.S4, dataBase+0x40000) // far region: loads here tend to miss
	missOff := int32(0)
	loopID := 0
	for b.Len() < n {
		switch rng.Intn(13) {
		case 0, 1, 2, 3:
			b.I(isa.Inst{Op: aluR[rng.Intn(len(aluR))], Rd: reg(), Rs1: reg(), Rs2: reg()})
		case 4, 5:
			b.I(isa.Addi(reg(), reg(), int32(rng.Intn(4096)-2048)))
		case 6:
			b.I(isa.Sw(reg(), isa.S2, int32(4*rng.Intn(500))))
		case 7:
			b.I(isa.Lw(reg(), isa.S2, int32(4*rng.Intn(500))))
		case 8:
			b.I(isa.Slli(reg(), reg(), int32(rng.Intn(32))))
		case 9: // short forward branch
			ops := []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE, isa.BLTU, isa.BGEU}
			b.I(isa.Inst{Op: ops[rng.Intn(len(ops))], Rs1: reg(), Rs2: reg(), Imm: 8})
			b.I(isa.Addi(reg(), reg(), 1))
		case 10: // bounded loop
			loopID++
			label := fmt.Sprintf("loop%d", loopID)
			iters := int32(2 + rng.Intn(6))
			b.I(isa.Addi(isa.S3, isa.Zero, iters))
			b.Label(label)
			b.I(isa.Inst{Op: aluR[rng.Intn(len(aluR))], Rd: reg(), Rs1: reg(), Rs2: reg()})
			b.I(isa.Addi(isa.S3, isa.S3, -1))
			b.Branch(isa.BNE, isa.S3, isa.Zero, label)
		case 11: // sub-word memory traffic
			if rng.Intn(2) == 0 {
				b.I(isa.Sb(reg(), isa.S2, int32(rng.Intn(2000))))
			} else {
				b.I(isa.Lbu(reg(), isa.S2, int32(rng.Intn(2000))))
			}
		case 12: // cache-missing load: a fresh line in the far region
			b.I(isa.Lw(reg(), isa.S4, missOff))
			missOff += 64 // next line
			if missOff > 2000 {
				missOff = 0
				b.I(isa.Addi(isa.S4, isa.S4, 2047), isa.Addi(isa.S4, isa.S4, 2047))
			}
		}
	}
	b.I(isa.Ebreak())
	p, err := b.Assemble()
	if err != nil {
		return nil, err
	}
	return belowData(p)
}
