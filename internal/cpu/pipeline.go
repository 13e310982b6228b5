// Package cpu implements the cycle-accurate 5-stage in-order RV32IM
// pipeline the paper implements on its FPGA (§II-A): Fetch, Decode,
// Execute, Memory and Writeback stages, a 2-level branch predictor with a
// BTB, a 32-entry register file and a 32 KB data cache whose hit costs one
// extra cycle and whose miss costs two further cycles.
//
// Besides architectural execution, the pipeline emits a per-cycle
// microarchitectural Trace: which instruction occupies each stage, which
// stages are stalled or hold flushed bubbles, the cache outcome, and the
// per-stage pipeline-latch values and transition bits. That trace is the
// common input of both the synthetic "real hardware" EM emitter and the
// EMSim model, mirroring the paper's setup where the FPGA and the
// simulator run the same program.
package cpu

import (
	"fmt"

	"emsim/internal/bpred"
	"emsim/internal/isa"
	"emsim/internal/mem"
)

// slot is one pipeline stage's occupant and the values it has produced so
// far as it flows down the pipe. A slot is either a real instruction or a
// bubble (startup hole, hazard bubble, or misprediction flush).
type slot struct {
	bubble bool
	inst   isa.Inst
	seq    int
	pc     uint32
	word   uint32 // fetched instruction word

	predNext  uint32 // fetch-time next-PC prediction
	predTaken bool

	rs1v, rs2v, imm uint32 // decode-stage register/immediate values

	opA, opB, aluOut uint32 // execute-stage operands and result
	cyclesLeft       int    // remaining occupancy cycles in EX or MEM
	started          bool   // stage work begun (per-stage, cleared on advance)
	resolved         bool   // EX result computed / branch resolved

	memAddr, memData      uint32 // memory-stage address/data latches
	cacheAccess, cacheHit bool

	wbVal uint32 // value destined for the register file
}

func bubbleSlot() slot { return slot{bubble: true, seq: -1} }

// enterStage clears the per-stage progress flags when a slot advances.
func (s *slot) enterStage() {
	s.started = false
	s.cyclesLeft = 0
}

// Stats summarizes one run of the core.
type Stats struct {
	Cycles      int
	Retired     int // architecturally completed instructions
	Bubbles     int // bubble slots that reached writeback
	StallCycles int // cycles with at least one frozen stage
	Flushes     int // misprediction flushes
	CacheHits   uint64
	CacheMisses uint64
	Mispredicts uint64 // branch and jump redirects
	Injected    int    // fetch slots taken by an installed FetchInjector
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// CPU is the simulated core. Create one with New, load a program into its
// memory, then Step or Run.
type CPU struct {
	cfg   Config
	mem   *mem.Memory
	cache *mem.Cache
	bp    *bpred.Unit
	inj   FetchInjector // optional fetch-slot countermeasure hook

	regs [isa.NumRegs]uint32
	pc   uint32

	st [NumStages]slot // current stage occupants

	lat       [NumStages][MaxLatchWords]uint32 // current stage latch values
	prevLatch [NumStages][MaxLatchWords]uint32

	cycle       int
	seq         int
	halted      bool
	retired     int
	bubbles     int
	stalls      int
	flushes     int
	injected    int
	mispredicts uint64

	// scratch is the cycle record reused by the streaming run loop so a
	// steady-state RunTo performs no allocations.
	scratch Cycle
}

// New builds a core with the given configuration and an empty memory.
func New(cfg Config) (*CPU, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cache, err := mem.NewCache(cfg.Cache)
	if err != nil {
		return nil, err
	}
	c := &CPU{
		cfg:   cfg,
		mem:   mem.NewMemory(),
		cache: cache,
		bp:    cfg.Predictor.build(),
	}
	c.resetPipeline()
	return c, nil
}

// MustNew is New for known-good configurations; it panics on error.
func MustNew(cfg Config) *CPU {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the core's configuration.
func (c *CPU) Config() Config { return c.cfg }

// Memory exposes the core's main memory for program loading and result
// inspection.
func (c *CPU) Memory() *mem.Memory { return c.mem }

// Cache exposes the data cache (for experiment setup such as pre-warming).
func (c *CPU) Cache() *mem.Cache { return c.cache }

// LoadProgram writes the instruction words at addr.
func (c *CPU) LoadProgram(addr uint32, words []uint32) {
	c.mem.LoadWords(addr, words)
}

// Reg returns the architectural value of register r.
func (c *CPU) Reg(r isa.Reg) uint32 { return c.regs[r] }

// SetReg sets register r (writes to x0 are ignored).
func (c *CPU) SetReg(r isa.Reg, v uint32) {
	if r != isa.Zero {
		c.regs[r] = v
	}
}

// PC returns the current fetch PC.
func (c *CPU) PC() uint32 { return c.pc }

// Halted reports whether an ECALL/EBREAK has retired.
func (c *CPU) Halted() bool { return c.halted }

// CycleCount returns the number of cycles simulated since reset.
func (c *CPU) CycleCount() int { return c.cycle }

func (c *CPU) resetPipeline() {
	for i := range c.st {
		c.st[i] = bubbleSlot()
	}
	c.lat = [NumStages][MaxLatchWords]uint32{}
	c.prevLatch = [NumStages][MaxLatchWords]uint32{}
	c.pc = c.cfg.ResetVector
	c.cycle = 0
	c.seq = 0
	c.halted = false
	c.retired = 0
	c.bubbles = 0
	c.stalls = 0
	c.flushes = 0
	c.injected = 0
	c.mispredicts = 0
}

// ResetCore restores the core (registers, pipeline, cache, predictor,
// counters) to power-on state but keeps memory contents, so a loaded
// program can be re-run.
func (c *CPU) ResetCore() {
	c.regs = [isa.NumRegs]uint32{}
	c.cache.Flush()
	c.cache.ResetStats()
	c.bp.Reset()
	c.resetPipeline()
}

// Reset restores the core and clears memory.
func (c *CPU) Reset() {
	c.ResetCore()
	c.mem.Reset()
}

// Stats returns cumulative statistics since the last reset.
func (c *CPU) Stats() Stats {
	hits, misses := c.cache.Stats()
	return Stats{
		Cycles:      c.cycle,
		Retired:     c.retired,
		Bubbles:     c.bubbles,
		StallCycles: c.stalls,
		Flushes:     c.flushes,
		CacheHits:   hits,
		CacheMisses: misses,
		Mispredicts: c.mispredicts,
		Injected:    c.injected,
	}
}

// forward returns the value of register r as seen by the EX stage this
// cycle: the MEM-stage occupant's pending result takes priority (it is the
// youngest completed producer ahead of EX); otherwise the architectural
// register file, which the WB stage has already updated this cycle
// (write-before-read register file, as in the classic 5-stage design).
func (c *CPU) forward(r isa.Reg) uint32 {
	if r == isa.Zero {
		return 0
	}
	if c.cfg.Forwarding {
		m := &c.st[MEM]
		if !m.bubble && m.inst.Op.WritesRd() && m.inst.Rd == r {
			return m.wbVal
		}
	}
	return c.regs[r]
}

// rawHazard reports whether the instruction in ID must stall. With
// forwarding only the load-use case stalls (the consumer may not enter EX
// while the load is leaving it); without forwarding any producer still in
// EX or MEM stalls the consumer.
func (c *CPU) rawHazard() bool {
	if c.st[ID].bubble {
		return false
	}
	if c.cfg.Forwarding {
		if rd, ok := slotWrites(&c.st[EX]); ok && c.st[EX].inst.Op.IsLoad() && c.idReads(rd) {
			return true
		}
		return false
	}
	if rd, ok := slotWrites(&c.st[EX]); ok && c.idReads(rd) {
		return true
	}
	if rd, ok := slotWrites(&c.st[MEM]); ok && c.idReads(rd) {
		return true
	}
	return false
}

// idReads reports whether the instruction currently in ID reads register
// r. (Hoisted out of rawHazard: a closure there allocates per Step under
// the noalloc analyzer's conservative model.)
func (c *CPU) idReads(r isa.Reg) bool {
	if r == isa.Zero {
		return false
	}
	id := &c.st[ID]
	return (id.inst.Op.ReadsRs1() && id.inst.Rs1 == r) ||
		(id.inst.Op.ReadsRs2() && id.inst.Rs2 == r)
}

// slotWrites returns the destination register the slot's instruction
// will write, if any.
func slotWrites(s *slot) (isa.Reg, bool) {
	if s.bubble || !s.inst.Op.WritesRd() || s.inst.Rd == isa.Zero {
		return 0, false
	}
	return s.inst.Rd, true
}

// effectiveImm returns the operand-ready immediate value for the decode
// latch (U-type immediates are shifted into position here).
func effectiveImm(in isa.Inst) uint32 {
	switch in.Op {
	case isa.LUI, isa.AUIPC:
		return uint32(in.Imm) << 12
	default:
		return uint32(in.Imm)
	}
}

// exLatency returns the EX-stage occupancy of an instruction.
func (c *CPU) exLatency(op isa.Op) int {
	switch op {
	case isa.MUL, isa.MULH, isa.MULHSU, isa.MULHU:
		return c.cfg.MulLatency
	case isa.DIV, isa.DIVU, isa.REM, isa.REMU:
		return c.cfg.DivLatency
	default:
		return 1
	}
}

// usesImmOperand reports whether the instruction's second ALU operand is
// the immediate rather than rs2.
func usesImmOperand(op isa.Op) bool {
	switch {
	case op.IsBranch():
		return false // branches compare rs1 vs rs2
	case op.Format() == isa.FormatR:
		return false
	default:
		return true
	}
}

// execute computes the architectural result of the instruction in EX given
// its (already forwarded) operands, honoring the BuggyMul hardware-defect
// switch for the Figure 11 debugging experiment.
func (c *CPU) execute(s *slot) uint32 {
	op := s.inst.Op
	// Note: the BuggyMul defect (Figure 11) is applied at operand-read
	// time — the truncated operand registers make this plain multiply
	// produce the wrong narrow product.
	switch {
	case op == isa.JAL:
		return s.pc + uint32(s.inst.Imm)
	case op == isa.JALR:
		return (s.opA + uint32(s.inst.Imm)) &^ 1
	case op.IsBranch():
		return s.pc + uint32(s.inst.Imm) // branch target adder
	case op == isa.AUIPC:
		return s.pc + uint32(s.inst.Imm)<<12
	case op.IsLoad() || op.IsStore():
		return s.opA + uint32(s.inst.Imm) // address generation
	case op.IsSystem() || op == isa.FENCE:
		return 0
	default:
		return aluOp(op, s.opA, s.opB)
	}
}

// fillStage records the occupancy facts of a stage in the cycle trace.
func fillStage(tr *StageTrace, s *slot, stalled bool) {
	tr.Bubble = s.bubble
	tr.Stalled = stalled && !s.bubble
	if !s.bubble {
		tr.Op = s.inst.Op
		tr.Inst = s.inst
		tr.Seq = s.seq
		tr.CacheAccess = s.cacheAccess
		tr.CacheHit = s.cacheHit
	} else {
		tr.Seq = -1
	}
}

// The iterative multiply/divide unit accumulates its result internally
// and writes the output latch once, in its final compute cycle — so "the
// majority of the activity (i.e., writing the output register) takes
// place in the last cycle", the behaviour the Figure 11 debugging
// scenario exploits. Intermediate compute cycles therefore leave the
// output latch untouched (the operand latches flipped on entry).

// Step simulates one clock cycle and returns its trace record. Calling
// Step on a halted core is an error.
func (c *CPU) Step() (Cycle, error) {
	var rec Cycle
	if err := c.StepInto(&rec); err != nil {
		return Cycle{}, err
	}
	return rec, nil
}

// StepInto simulates one clock cycle and fills the caller-provided trace
// record in place, allocating nothing. It is the hot-path form of Step:
// the streaming run loop reuses one record for the whole run. Calling
// StepInto on a halted core is an error.
//
//emsim:noalloc
func (c *CPU) StepInto(rec *Cycle) error {
	if c.halted {
		//emsim:ignore noalloc cold misuse path: stepping a halted core already left the steady state
		return fmt.Errorf("cpu: step after halt (cycle %d)", c.cycle)
	}
	*rec = Cycle{N: c.cycle}
	haltNow := false

	// ---------------- WB ----------------
	{
		s := &c.st[WB]
		fillStage(&rec.Stages[WB], s, false)
		if !s.bubble {
			in := s.inst
			if in.Op.WritesRd() && in.Rd != isa.Zero {
				c.regs[in.Rd] = s.wbVal
				c.lat[WB] = [MaxLatchWords]uint32{s.wbVal, 1 << uint(in.Rd), 0}
			}
			if in.Op.IsSystem() {
				haltNow = true
			}
			c.retired++
		} else {
			c.bubbles++
		}
	}

	// ---------------- MEM ----------------
	{
		s := &c.st[MEM]
		if !s.bubble {
			if !s.started {
				s.started = true
				op := s.inst.Op
				if op.IsLoad() || op.IsStore() {
					addr := s.aluOut
					hit, stall := c.cache.Access(addr)
					s.cacheAccess, s.cacheHit = true, hit
					s.cyclesLeft = 1 + stall
					if op.IsLoad() {
						var data uint32
						switch op {
						case isa.LB:
							data = uint32(int32(int8(c.mem.LoadByte(addr))))
						case isa.LBU:
							data = uint32(c.mem.LoadByte(addr))
						case isa.LH:
							data = uint32(int32(int16(c.mem.ReadHalf(addr))))
						case isa.LHU:
							data = uint32(c.mem.ReadHalf(addr))
						case isa.LW:
							data = c.mem.ReadWord(addr)
						}
						s.memAddr, s.memData, s.wbVal = addr, data, data
					} else {
						switch op {
						case isa.SB:
							c.mem.StoreByte(addr, byte(s.memData))
						case isa.SH:
							c.mem.WriteHalf(addr, uint16(s.memData))
						case isa.SW:
							c.mem.WriteWord(addr, s.memData)
						}
						s.memAddr = addr
					}
					c.lat[MEM] = [MaxLatchWords]uint32{s.memAddr, s.memData, 0}
				} else {
					s.cyclesLeft = 1
				}
				fillStage(&rec.Stages[MEM], s, false)
			} else {
				// Extra cache/memory wait cycles: the stage is frozen.
				fillStage(&rec.Stages[MEM], s, true)
			}
			s.cyclesLeft--
		} else {
			fillStage(&rec.Stages[MEM], s, false)
		}
	}
	memDone := c.st[MEM].bubble || (c.st[MEM].started && c.st[MEM].cyclesLeft == 0)

	// ---------------- EX ----------------
	mispredict := false
	var redirectPC uint32
	{
		s := &c.st[EX]
		if !s.bubble {
			if !s.started {
				s.started = true
				s.cyclesLeft = c.exLatency(s.inst.Op)
				op := s.inst.Op
				if op.ReadsRs1() {
					s.opA = c.forward(s.inst.Rs1)
				} else {
					s.opA = 0
				}
				switch {
				case op.IsStore():
					s.memData = c.forward(s.inst.Rs2) // store data
					s.opB = uint32(s.inst.Imm)
				case op.ReadsRs2():
					s.opB = c.forward(s.inst.Rs2)
				case usesImmOperand(op):
					s.opB = effectiveImm(s.inst)
				default:
					s.opB = 0
				}
				if c.cfg.BuggyMul && op == isa.MUL {
					// The Figure 11 defect: the multiplier's operand
					// registers only latch the low byte, so both the
					// product and the unit's switching activity shrink.
					s.opA &= 0xFF
					s.opB &= 0xFF
				}
			}
			if s.cyclesLeft > 0 {
				// A compute cycle.
				s.cyclesLeft--
				lastWord := c.lat[EX][2]
				if s.cyclesLeft == 0 {
					s.resolved = true
					s.aluOut = c.execute(s)
					lastWord = s.aluOut
					op := s.inst.Op
					switch {
					case op.IsBranch():
						taken := branchTaken(op, s.opA, s.opB)
						target := s.aluOut
						if c.bp.Resolve(s.pc, taken, target, s.predTaken, s.predNext) {
							mispredict = true
							c.mispredicts++
							if taken {
								redirectPC = target
							} else {
								redirectPC = s.pc + 4
							}
						}
					case op.IsJump():
						target := s.aluOut
						s.wbVal = s.pc + 4
						c.bp.BTB.Insert(s.pc, target)
						if s.predNext != target {
							mispredict = true
							c.mispredicts++
							redirectPC = target
						}
					case op.IsLoad(), op.IsStore():
						// address in aluOut; data comes from MEM
					default:
						s.wbVal = s.aluOut
					}
				}
				fillStage(&rec.Stages[EX], s, false)
				c.lat[EX] = [MaxLatchWords]uint32{s.opA, s.opB, lastWord}
			} else {
				// Finished computing but waiting for MEM to free.
				fillStage(&rec.Stages[EX], s, true)
			}
		} else {
			fillStage(&rec.Stages[EX], s, false)
		}
	}
	exDone := c.st[EX].bubble || (c.st[EX].started && c.st[EX].cyclesLeft == 0)

	// ---------------- ID ----------------
	idVacates := exDone && memDone && (c.st[ID].bubble || !c.rawHazard())
	{
		s := &c.st[ID]
		if !s.bubble {
			frozen := !idVacates
			fillStage(&rec.Stages[ID], s, frozen)
			if !frozen {
				// Register file read (raw, un-forwarded: the physical ID
				// latches see the register file outputs).
				if s.inst.Op.ReadsRs1() {
					s.rs1v = c.regs[s.inst.Rs1]
				} else {
					s.rs1v = 0
				}
				if s.inst.Op.ReadsRs2() {
					s.rs2v = c.regs[s.inst.Rs2]
				} else {
					s.rs2v = 0
				}
				s.imm = effectiveImm(s.inst)
				c.lat[ID] = [MaxLatchWords]uint32{s.rs1v, s.rs2v, s.imm}
			}
		} else {
			fillStage(&rec.Stages[ID], s, false)
		}
	}

	// ---------------- IF ----------------
	// The fetch stage reads instruction memory combinationally and latches
	// the result into ID at cycle end; a separate IF holding register does
	// not exist in the classic design. When the decode stage cannot accept
	// (hazard or downstream stall), the IF/ID latch is clock-gated and no
	// fetch completes.
	var fetched slot
	{
		tr := &rec.Stages[IF]
		injKind := InjectNone
		var injection Injection
		if idVacates && c.inj != nil {
			//emsim:ignore noalloc dynamic dispatch by design; every in-tree injector is itself annotated noalloc
			injection = c.inj.Inject(c.cycle, c.pc)
			injKind = injection.Kind
		}
		switch {
		case injKind == InjectBubble:
			// A countermeasure stall: the fetch bus is clock-gated for one
			// cycle, the PC holds, the IF latch keeps its value (no
			// transitions) and a bubble enters decode.
			fetched = bubbleSlot()
			fillStage(tr, &fetched, false)
			c.injected++
		case injKind == InjectInst:
			// A countermeasure dummy: the supplied instruction enters
			// decode as if fetched from c.pc, the PC holds, and the real
			// instruction stream resumes next accepting cycle.
			fetched = slot{pc: c.pc, word: injection.Word, seq: c.seq, inst: injection.Inst}
			fetched.predNext = c.pc
			c.seq++
			c.injected++
			fillStage(tr, &fetched, false)
			c.lat[IF] = [MaxLatchWords]uint32{fetched.pc, fetched.word, 0}
		case idVacates:
			word := c.mem.ReadWord(c.pc)
			fetched = slot{pc: c.pc, word: word, seq: c.seq}
			in, ok := isa.TryDecode(word)
			if !ok {
				fetched.bubble = true
				fetched.seq = -1
			} else {
				fetched.inst = in
				c.seq++
			}
			next := c.pc + 4
			if ok {
				switch {
				case in.Op.IsBranch():
					n, taken := c.bp.PredictNext(c.pc)
					next, fetched.predTaken = n, taken
				case in.Op.IsJump():
					if t, ok := c.bp.BTB.Lookup(c.pc); ok {
						next = t
					}
				}
			}
			fetched.predNext = next
			c.pc = next
			fillStage(tr, &fetched, false)
			c.lat[IF] = [MaxLatchWords]uint32{fetched.pc, fetched.word, 0}
		default:
			// Frozen: the fetch bus still presents pc's word, but nothing
			// latches. Record what sits on the bus for the trace.
			tr.Stalled = true
			tr.Seq = -1
			if in, ok := isa.TryDecode(c.mem.ReadWord(c.pc)); ok {
				tr.Op = in.Op
				tr.Inst = in
			}
		}
	}

	// ---------------- Advance latches (end of cycle) ----------------
	if memDone {
		c.st[WB] = c.st[MEM]
		c.st[WB].enterStage()
		if exDone {
			c.st[MEM] = c.st[EX]
			c.st[MEM].enterStage()
			if idVacates {
				c.st[EX] = c.st[ID]
				c.st[EX].enterStage()
				c.st[ID] = fetched
				c.st[ID].enterStage()
			} else {
				c.st[EX] = bubbleSlot() // hazard bubble
			}
		} else {
			c.st[MEM] = bubbleSlot()
		}
	} else {
		c.st[WB] = bubbleSlot()
	}

	// ---------------- Misprediction flush ----------------
	if mispredict {
		rec.MispredictFlush = true
		c.flushes++
		if memDone && exDone {
			// The branch moved on to MEM; whatever advanced into EX
			// behind it is wrong-path (or already a bubble).
			c.st[EX] = bubbleSlot()
		}
		// The branch stayed in EX otherwise (waiting on a busy MEM); in
		// both cases everything in the front end is wrong-path.
		c.st[ID] = bubbleSlot()
		c.st[IF] = bubbleSlot()
		c.pc = redirectPC
	}

	// ---------------- Latch/flip bookkeeping ----------------
	for s := Stage(0); s < NumStages; s++ {
		tr := &rec.Stages[s]
		tr.Latch = c.lat[s]
		for w := 0; w < MaxLatchWords; w++ {
			tr.Flip[w] = c.lat[s][w] ^ c.prevLatch[s][w]
		}
		if tr.Stalled {
			rec.AnyStall = true
		}
	}
	c.prevLatch = c.lat
	if rec.AnyStall {
		c.stalls++
	}
	c.cycle++
	if haltNow {
		c.halted = true
	}
	return nil
}

// Run steps the core until it halts, returning the full trace. It fails if
// MaxCycles elapse first. Run is the materializing wrapper around the
// streaming RunTo path; campaign workloads that do not need to retain the
// whole trace should use RunTo with their own sink instead.
func (c *CPU) Run() (Trace, error) {
	var tr Trace
	err := c.RunTo(AppendTo(&tr))
	return tr, err
}

// RunProgram is the common load-reset-run convenience: it fully resets
// the machine (core and memory), loads words at the reset vector and runs
// to completion. The full reset keeps repeated runs bit-for-bit
// deterministic — a program must initialize any data it reads. To run
// against pre-loaded memory, use LoadProgram + Run directly.
func (c *CPU) RunProgram(words []uint32) (Trace, error) {
	var tr Trace
	err := c.RunProgramTo(words, AppendTo(&tr))
	return tr, err
}
