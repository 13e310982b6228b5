// Package asm provides a two-pass RV32IM assembler and a programmatic
// Builder for constructing programs with labels. The experiment harness
// uses the Builder to generate microbenchmarks (the paper's 7⁵ combination
// groups, SAVAT A/B alternations, AES-128) and the text assembler to load
// hand-written programs in cmd/emsim.
package asm

import (
	"fmt"

	"emsim/internal/isa"
)

// fixupKind says how a label's address patches an instruction.
type fixupKind int

const (
	fixNone fixupKind = iota
	fixPC             // PC-relative branch or jump offset
	fixHi             // %hi(label) for LUI (with low-part rounding)
	fixLo             // %lo(label) for ADDI/load/store offsets
	fixAbs            // absolute address into a .word
)

type item struct {
	inst  isa.Inst
	data  bool   // raw data word instead of instruction
	word  uint32 // data value when data is true
	fix   fixupKind
	label string
	line  int // 1-based source line for diagnostics (0 outside Assemble)
}

// Program is an assembled binary image.
type Program struct {
	// Words is the binary image, one 32-bit word per entry, based at
	// Origin.
	Words []uint32
	// Origin is the load address of Words[0].
	Origin uint32
	// Symbols maps each label to its absolute address.
	Symbols map[string]uint32
}

// Size returns the image size in bytes.
func (p *Program) Size() int { return 4 * len(p.Words) }

// Builder accumulates instructions, labels and data and resolves label
// references at Assemble time.
type Builder struct {
	origin uint32
	items  []item
	labels map[string]int // label -> item index it precedes
	errs   []error
	line   int // source line the text parser is reading; 0 for Go callers
}

// NewBuilder returns an empty Builder with origin 0.
func NewBuilder() *Builder {
	return &Builder{labels: make(map[string]int)}
}

// SetOrigin sets the image load address. It must be called before any
// instruction is added and must be word-aligned.
func (b *Builder) SetOrigin(addr uint32) *Builder {
	if len(b.items) > 0 {
		b.fail("SetOrigin after code was added")
	}
	if addr%4 != 0 {
		b.fail("origin %#x not word-aligned", addr)
	}
	b.origin = addr
	return b
}

// Label defines a label at the current position.
func (b *Builder) Label(name string) *Builder {
	if name == "" {
		return b.fail("empty label")
	}
	if _, dup := b.labels[name]; dup {
		return b.fail("duplicate label %q", name)
	}
	b.labels[name] = len(b.items)
	return b
}

// I appends one or more concrete instructions.
func (b *Builder) I(insts ...isa.Inst) *Builder {
	for _, in := range insts {
		b.add(item{inst: in})
	}
	return b
}

// Nop appends n NOPs.
func (b *Builder) Nop(n int) *Builder {
	for i := 0; i < n; i++ {
		b.I(isa.Nop())
	}
	return b
}

// Branch appends a conditional branch to a label.
func (b *Builder) Branch(op isa.Op, rs1, rs2 isa.Reg, label string) *Builder {
	if !op.IsBranch() {
		return b.fail("Branch with non-branch op %v", op)
	}
	return b.fixup(isa.Inst{Op: op, Rs1: rs1, Rs2: rs2}, fixPC, label)
}

// Jal appends a jump-and-link to a label.
func (b *Builder) Jal(rd isa.Reg, label string) *Builder {
	return b.fixup(isa.Jal(rd, 0), fixPC, label)
}

// La appends the two-instruction absolute-address materialization
// (lui+addi) for a label.
func (b *Builder) La(rd isa.Reg, label string) *Builder {
	return b.fixup(isa.Lui(rd, 0), fixHi, label).fixup(isa.Addi(rd, rd, 0), fixLo, label)
}

// Li appends the shortest load-immediate sequence for v.
func (b *Builder) Li(rd isa.Reg, v int32) *Builder { return b.I(isa.Li(rd, v)...) }

// Word appends a raw data word.
func (b *Builder) Word(v uint32) *Builder { return b.add(item{data: true, word: v}) }

// Words appends raw data words.
func (b *Builder) Words(vs ...uint32) *Builder {
	for _, v := range vs {
		b.Word(v)
	}
	return b
}

// WordAddr appends a data word holding a label's absolute address.
func (b *Builder) WordAddr(label string) *Builder {
	return b.add(item{data: true, fix: fixAbs, label: label})
}

// Len returns the current image length in words.
func (b *Builder) Len() int { return len(b.items) }

// add appends it, stamped with the current source line.
func (b *Builder) add(it item) *Builder {
	it.line = b.line
	b.items = append(b.items, it)
	return b
}

// fixup appends in, to be patched by kind with label's address at
// Assemble time; kind fixNone appends in as it is.
func (b *Builder) fixup(in isa.Inst, kind fixupKind, label string) *Builder {
	return b.add(item{inst: in, fix: kind, label: label})
}

// fail records an error at the current source line; Assemble reports
// the first.
func (b *Builder) fail(format string, args ...any) *Builder {
	b.errs = append(b.errs, errorf(b.line, format, args...))
	return b
}

// errorf formats an assembler error, naming the source line if known.
func errorf(line int, format string, args ...any) error {
	if line > 0 {
		format, args = "line %d: "+format, append([]any{line}, args...)
	}
	return fmt.Errorf("asm: "+format, args...)
}

// hiLo splits an absolute address into the LUI/ADDI pair used by la: the
// high part is rounded so the sign-extended low part recombines exactly.
func hiLo(addr uint32) (hi, lo int32) {
	hi = int32(addr+0x800) >> 12
	lo = int32(addr) - hi<<12
	return hi & 0xFFFFF, lo
}

// Assemble resolves labels and encodes the image.
func (b *Builder) Assemble() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	symbols := make(map[string]uint32, len(b.labels))
	for name, idx := range b.labels {
		symbols[name] = b.origin + 4*uint32(idx)
	}
	words := make([]uint32, len(b.items))
	for i, it := range b.items {
		addr := b.origin + 4*uint32(i)
		if it.fix != fixNone {
			target, ok := symbols[it.label]
			if !ok {
				return nil, errorf(it.line, "undefined label %q", it.label)
			}
			switch it.fix {
			case fixPC:
				it.inst.Imm = int32(target) - int32(addr)
			case fixHi:
				it.inst.Imm, _ = hiLo(target)
			case fixLo:
				_, it.inst.Imm = hiLo(target)
			case fixAbs:
				it.word = target
			}
		}
		if it.data {
			words[i] = it.word
			continue
		}
		w, err := isa.Encode(it.inst)
		if err != nil {
			return nil, errorf(it.line, "at %#x: %w", addr, err)
		}
		words[i] = w
	}
	return &Program{Words: words, Origin: b.origin, Symbols: symbols}, nil
}

// MustAssemble is Assemble for known-good programs; it panics on error.
func (b *Builder) MustAssemble() *Program {
	p, err := b.Assemble()
	if err != nil {
		panic(err)
	}
	return p
}
