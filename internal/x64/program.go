package x64

import (
	"fmt"
	"strings"
)

// Program is a loop-free sequence of instructions. Candidate rewrites keep a
// fixed physical length ℓ (the dimensionality constant from §4.3) and
// represent shorter programs with UNUSED tokens; parsed targets are packed.
type Program struct {
	Insts []Inst
}

// NewProgram returns a program of n UNUSED slots.
func NewProgram(n int) *Program {
	p := &Program{Insts: make([]Inst, n)}
	for i := range p.Insts {
		p.Insts[i] = Unused()
	}
	return p
}

// Clone returns a deep copy of p.
func (p *Program) Clone() *Program {
	q := &Program{Insts: make([]Inst, len(p.Insts))}
	copy(q.Insts, p.Insts)
	return q
}

// Len returns the number of physical instruction slots.
func (p *Program) Len() int { return len(p.Insts) }

// InstCount returns the number of live (non-UNUSED, non-LABEL) instructions,
// the length measure used when the paper reports "16 lines shorter".
func (p *Program) InstCount() int {
	n := 0
	for _, in := range p.Insts {
		if in.Op != UNUSED && in.Op != LABEL && in.Op != RET {
			n++
		}
	}
	return n
}

// MaxLabel returns the largest label id mentioned by p, or -1 if none.
func (p *Program) MaxLabel() int32 {
	max := int32(-1)
	for _, in := range p.Insts {
		for i := uint8(0); i < in.N; i++ {
			if in.Opd[i].Kind == KindLabel && in.Opd[i].Label > max {
				max = in.Opd[i].Label
			}
		}
	}
	return max
}

// LabelIndex returns a map from label id to the slot index of its LABEL
// pseudo-instruction.
func (p *Program) LabelIndex() map[int32]int {
	m := make(map[int32]int)
	for i, in := range p.Insts {
		if in.Op == LABEL {
			m[in.Opd[0].Label] = i
		}
	}
	return m
}

// Validate checks every instruction and the control-flow discipline: every
// referenced label must be defined exactly once, and, because candidate
// programs are loop-free (§1), every jump must target a label at a strictly
// later slot.
func (p *Program) Validate() error {
	labels := make(map[int32]int)
	for i, in := range p.Insts {
		if in.Op == LABEL {
			if prev, dup := labels[in.Opd[0].Label]; dup {
				return fmt.Errorf("x64: label .L%d defined at both %d and %d",
					in.Opd[0].Label, prev, i)
			}
			labels[in.Opd[0].Label] = i
		}
	}
	for i, in := range p.Insts {
		if err := in.Validate(); err != nil {
			return fmt.Errorf("inst %d: %w", i, err)
		}
		if in.Op == JMP || in.Op == Jcc {
			target, ok := labels[in.Opd[0].Label]
			if !ok {
				return fmt.Errorf("x64: inst %d jumps to undefined label .L%d",
					i, in.Opd[0].Label)
			}
			if target <= i {
				return fmt.Errorf("x64: inst %d jumps backwards to .L%d (loops are out of scope)",
					i, in.Opd[0].Label)
			}
		}
	}
	return nil
}

// Registers read before being written, over a straight-line approximation
// (all paths). Useful for sanity-checking declared live-in sets.
func (p *Program) UpwardExposedGPRs() RegSet {
	var written, exposed RegSet
	for _, in := range p.Insts {
		e := EffectsOf(in)
		exposed |= e.GPRRead &^ written
		written |= e.GPRWrite
	}
	return exposed
}

// WrittenGPRs returns every general purpose register any instruction writes.
func (p *Program) WrittenGPRs() RegSet {
	var w RegSet
	for _, in := range p.Insts {
		w |= EffectsOf(in).GPRWrite
	}
	return w
}

// String renders the program as assembly text, omitting UNUSED slots.
func (p *Program) String() string {
	var b strings.Builder
	for _, in := range p.Insts {
		if in.Op == UNUSED {
			continue
		}
		if in.Op == LABEL {
			fmt.Fprintf(&b, "%s\n", in.String())
			continue
		}
		fmt.Fprintf(&b, "  %s\n", in.String())
	}
	return b.String()
}

// Packed returns a copy of p with UNUSED slots removed.
func (p *Program) Packed() *Program {
	n := 0
	for _, in := range p.Insts {
		if in.Op != UNUSED {
			n++
		}
	}
	q := &Program{Insts: make([]Inst, 0, n)}
	for _, in := range p.Insts {
		if in.Op != UNUSED {
			q.Insts = append(q.Insts, in)
		}
	}
	return q
}

// PadTo returns a copy of p padded with UNUSED slots to exactly n slots.
// If p already has n or more slots it is cloned unchanged.
func (p *Program) PadTo(n int) *Program {
	q := p.Clone()
	for len(q.Insts) < n {
		q.Insts = append(q.Insts, Unused())
	}
	return q
}
