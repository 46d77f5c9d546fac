package emu

import (
	"math/bits"

	"repro/internal/x64"
)

// Run executes a loop-free program from the current machine state and
// returns the outcome. The machine model is fully deterministic: where the
// Intel SDM leaves a result or flag undefined (bsf on zero, shift overflow
// flags past count 1, divide-fault register state) this model fixes a
// deterministic value, and the emulator and the symbolic validator agree on
// it. The undef counter tracks *data* undefinedness (uninitialised
// registers, flags and memory), which is what the paper's err(·) term
// penalises.
func (m *Machine) Run(p *x64.Program) Outcome {
	var out Outcome
	pc := 0
	for pc < len(p.Insts) {
		if out.Steps >= m.MaxSteps {
			out.Exhaust = true
			break
		}
		in := &p.Insts[pc]
		switch in.Op {
		case x64.UNUSED, x64.LABEL:
			pc++
			continue
		case x64.RET:
			pc = len(p.Insts)
			continue
		case x64.JMP:
			pc = m.jumpTarget(p, pc, in.Opd[0].Label)
			out.Steps++
			continue
		case x64.Jcc:
			taken := x64.EvalCond(in.CC, m.readFlagsFor(in.CC))
			out.Steps++
			if taken {
				pc = m.jumpTarget(p, pc, in.Opd[0].Label)
			} else {
				pc++
			}
			continue
		}
		m.exec(in)
		out.Steps++
		pc++
	}
	out.SigSegv = m.sigsegv
	out.SigFpe = m.sigfpe
	out.Undef = m.undef
	return out
}

// jumpTarget resolves a forward jump by scanning for the label. Programs
// are validated to contain only forward jumps, so scanning from pc+1 always
// terminates; a missing label (unvalidated candidate) falls off the end,
// which is safe.
func (m *Machine) jumpTarget(p *x64.Program, pc int, label int16) int {
	for i := pc + 1; i < len(p.Insts); i++ {
		if p.Insts[i].Op == x64.LABEL && p.Insts[i].Opd[0].Label == label {
			return i + 1
		}
	}
	return len(p.Insts)
}

// szpFlags sets SF, ZF and PF from a result at width w.
func (m *Machine) szpFlags(r uint64, w uint8) {
	m.setFlag(x64.SF, r&signBit(w) != 0)
	m.setFlag(x64.ZF, r&widthMask(w) == 0)
	m.setFlag(x64.PF, bits.OnesCount8(uint8(r))%2 == 0)
}

// addFlags sets all flags for r = a + b + carryIn at width w.
func (m *Machine) addFlags(a, b, carryIn, r uint64, w uint8) {
	mask := widthMask(w)
	a, b, r = a&mask, b&mask, r&mask
	var cf bool
	if w == 8 {
		t := a + b
		cf = t < a || t+carryIn < t
	} else {
		cf = (a+b+carryIn)>>widthBits(w) != 0
	}
	m.setFlag(x64.CF, cf)
	m.setFlag(x64.OF, (a^r)&(b^r)&signBit(w) != 0)
	m.szpFlags(r, w)
}

// subFlags sets all flags for r = a - b - borrowIn at width w.
func (m *Machine) subFlags(a, b, borrowIn, r uint64, w uint8) {
	mask := widthMask(w)
	a, b, r = a&mask, b&mask, r&mask
	cf := a < b || a-b < borrowIn
	m.setFlag(x64.CF, cf)
	m.setFlag(x64.OF, (a^b)&(a^r)&signBit(w) != 0)
	m.szpFlags(r, w)
}

// logicFlags sets flags for logical results (CF = OF = 0).
func (m *Machine) logicFlags(r uint64, w uint8) {
	m.setFlag(x64.CF, false)
	m.setFlag(x64.OF, false)
	m.szpFlags(r, w)
}

// exec interprets one non-control-flow instruction.
func (m *Machine) exec(in *x64.Inst) {
	switch in.Op {
	case x64.MOV, x64.MOVABS:
		m.writeOperand(in.Opd[1], m.readOperand(in.Opd[0]))

	case x64.MOVZX:
		m.writeOperand(in.Opd[1], m.readOperand(in.Opd[0]))

	case x64.MOVSX:
		v := m.readOperand(in.Opd[0])
		sw := in.Opd[0].Width
		v = uint64(signExtend(v, sw))
		m.writeOperand(in.Opd[1], v&widthMask(in.Opd[1].Width))

	case x64.LEA:
		// LEA computes the address without touching memory or the sandbox.
		a := m.effectiveAddr(in.Opd[0])
		m.writeOperand(in.Opd[1], a&widthMask(in.Opd[1].Width))

	case x64.XCHG:
		a := m.readOperand(in.Opd[0])
		b := m.readOperand(in.Opd[1])
		m.writeOperand(in.Opd[0], b)
		m.writeOperand(in.Opd[1], a)

	case x64.PUSH:
		v := m.readOperand(in.Opd[0])
		if m.RegDef&(1<<x64.RSP) == 0 {
			m.undef++
		}
		m.Regs[x64.RSP] -= 8
		m.regsWritten |= 1 << x64.RSP
		m.store(m.Regs[x64.RSP], 8, v)

	case x64.POP:
		if m.RegDef&(1<<x64.RSP) == 0 {
			m.undef++
		}
		v := m.load(m.Regs[x64.RSP], 8)
		m.Regs[x64.RSP] += 8
		m.regsWritten |= 1 << x64.RSP
		m.writeOperand(in.Opd[0], v)

	case x64.CMOVcc:
		taken := x64.EvalCond(in.CC, m.readFlagsFor(in.CC))
		src := m.readOperand(in.Opd[0])
		dst := m.readOperand(in.Opd[1])
		v := dst
		if taken {
			v = src
		}
		// Hardware always writes the destination (32-bit cmov zero-extends
		// even when the move does not occur).
		m.writeOperand(in.Opd[1], v)

	case x64.ADD, x64.ADC:
		w := in.Opd[1].Width
		a := m.readOperand(in.Opd[1])
		b := m.readOperand(in.Opd[0])
		var c uint64
		if in.Op == x64.ADC {
			if m.FlagsDef&x64.CF == 0 {
				m.undef++
			}
			if m.Flags&x64.CF != 0 {
				c = 1
			}
		}
		r := (a + b + c) & widthMask(w)
		m.addFlags(a, b, c, r, w)
		m.writeOperand(in.Opd[1], r)

	case x64.SUB, x64.SBB:
		w := in.Opd[1].Width
		// sub r, r is the other dependency-breaking zero idiom.
		if in.Op == x64.SUB && sameReg(in.Opd[0], in.Opd[1]) {
			m.subFlags(0, 0, 0, 0, w)
			m.writeOperand(in.Opd[1], 0)
			return
		}
		a := m.readOperand(in.Opd[1])
		b := m.readOperand(in.Opd[0])
		var c uint64
		if in.Op == x64.SBB {
			if m.FlagsDef&x64.CF == 0 {
				m.undef++
			}
			if m.Flags&x64.CF != 0 {
				c = 1
			}
		}
		r := (a - b - c) & widthMask(w)
		m.subFlags(a, b, c, r, w)
		m.writeOperand(in.Opd[1], r)

	case x64.CMP:
		w := in.Opd[1].Width
		if in.Opd[1].Kind == x64.KindImm {
			w = in.Opd[0].Width
		}
		a := m.readOperand(in.Opd[1])
		b := m.readOperand(in.Opd[0])
		r := (a - b) & widthMask(w)
		m.subFlags(a, b, 0, r, w)

	case x64.TEST:
		w := in.Opd[1].Width
		a := m.readOperand(in.Opd[1])
		b := m.readOperand(in.Opd[0])
		m.logicFlags(a&b, w)

	case x64.NEG:
		w := in.Opd[0].Width
		a := m.readOperand(in.Opd[0])
		r := (-a) & widthMask(w)
		m.setFlag(x64.CF, a&widthMask(w) != 0)
		m.setFlag(x64.OF, a&widthMask(w) == signBit(w))
		m.szpFlags(r, w)
		m.writeOperand(in.Opd[0], r)

	case x64.INC, x64.DEC:
		w := in.Opd[0].Width
		a := m.readOperand(in.Opd[0])
		var r uint64
		if in.Op == x64.INC {
			r = (a + 1) & widthMask(w)
			m.setFlag(x64.OF, r&widthMask(w) == signBit(w))
		} else {
			r = (a - 1) & widthMask(w)
			m.setFlag(x64.OF, a&widthMask(w) == signBit(w))
		}
		m.szpFlags(r, w)
		m.writeOperand(in.Opd[0], r)

	case x64.AND, x64.OR, x64.XOR:
		w := in.Opd[1].Width
		// The xor-zero idiom: xor r, r is defined regardless of r's
		// contents (hardware treats it as a dependency-breaking zero).
		if in.Op == x64.XOR && sameReg(in.Opd[0], in.Opd[1]) {
			m.logicFlags(0, w)
			m.writeOperand(in.Opd[1], 0)
			return
		}
		a := m.readOperand(in.Opd[1])
		b := m.readOperand(in.Opd[0])
		var r uint64
		switch in.Op {
		case x64.AND:
			r = a & b
		case x64.OR:
			r = a | b
		case x64.XOR:
			r = a ^ b
		}
		r &= widthMask(w)
		m.logicFlags(r, w)
		m.writeOperand(in.Opd[1], r)

	case x64.NOT:
		w := in.Opd[0].Width
		a := m.readOperand(in.Opd[0])
		m.writeOperand(in.Opd[0], ^a&widthMask(w))

	case x64.IMUL:
		w := in.Opd[1].Width
		a := signExtend(m.readOperand(in.Opd[1]), w)
		b := signExtend(m.readOperand(in.Opd[0]), w)
		hi, lo := mulSigned(a, b)
		r := uint64(lo) & widthMask(w)
		m.imulFlags(hi, lo, r, w)
		m.writeOperand(in.Opd[1], r)

	case x64.IMUL3:
		w := in.Opd[2].Width
		a := signExtend(m.readOperand(in.Opd[1]), w)
		b := signExtend(uint64(in.Opd[0].Imm)&widthMask(w), w)
		hi, lo := mulSigned(a, b)
		r := uint64(lo) & widthMask(w)
		m.imulFlags(hi, lo, r, w)
		m.writeOperand(in.Opd[2], r)

	case x64.IMUL1, x64.MUL:
		m.execWideningMul(in)

	case x64.DIV, x64.IDIV:
		m.execDivide(in)

	case x64.SHL, x64.SHR, x64.SAR, x64.ROL, x64.ROR:
		m.execShift(in)

	case x64.SHLD, x64.SHRD:
		m.execDoubleShift(in)

	case x64.POPCNT:
		w := in.Opd[1].Width
		a := m.readOperand(in.Opd[0])
		r := uint64(bits.OnesCount64(a))
		m.setFlag(x64.CF, false)
		m.setFlag(x64.OF, false)
		m.setFlag(x64.SF, false)
		m.setFlag(x64.PF, false)
		m.setFlag(x64.ZF, a&widthMask(w) == 0)
		m.writeOperand(in.Opd[1], r)

	case x64.BSF, x64.BSR:
		w := in.Opd[1].Width
		a := m.readOperand(in.Opd[0]) & widthMask(w)
		var r uint64
		if a == 0 {
			// Deterministic model: result 0 when the source is zero.
			m.setFlag(x64.ZF, true)
		} else {
			m.setFlag(x64.ZF, false)
			if in.Op == x64.BSF {
				r = uint64(bits.TrailingZeros64(a))
			} else {
				r = uint64(63 - bits.LeadingZeros64(a))
			}
		}
		m.setFlag(x64.CF, false)
		m.setFlag(x64.OF, false)
		m.setFlag(x64.SF, false)
		m.setFlag(x64.PF, false)
		m.writeOperand(in.Opd[1], r)

	case x64.BSWAP:
		w := in.Opd[0].Width
		a := m.readOperand(in.Opd[0])
		if w == 4 {
			m.writeOperand(in.Opd[0], uint64(bits.ReverseBytes32(uint32(a))))
		} else {
			m.writeOperand(in.Opd[0], bits.ReverseBytes64(a))
		}

	case x64.BT:
		w := in.Opd[1].Width
		a := m.readOperand(in.Opd[1])
		idx := m.readOperand(in.Opd[0]) % uint64(widthBits(w))
		m.setFlag(x64.CF, a>>idx&1 != 0)

	case x64.SETcc:
		taken := x64.EvalCond(in.CC, m.readFlagsFor(in.CC))
		v := uint64(0)
		if taken {
			v = 1
		}
		m.writeOperand(in.Opd[0], v)

	default:
		m.execSSE(in)
	}
}

// imulFlags sets CF = OF = (the full product does not fit the destination
// width), plus deterministic SF/ZF/PF from the truncated result (hardware
// leaves them undefined; our machine model defines them).
func (m *Machine) imulFlags(hi int64, lo int64, r uint64, w uint8) {
	var overflow bool
	if w == 8 {
		overflow = hi != lo>>63
	} else {
		full := lo // product already fits in 64 bits for w < 8
		overflow = full != signExtend(r, w)
	}
	m.setFlag(x64.CF, overflow)
	m.setFlag(x64.OF, overflow)
	m.szpFlags(r, w)
}

// execWideningMul implements the one-operand widening multiplies:
// RDX:RAX = RAX * src (64-bit) or EDX:EAX = EAX * src (32-bit).
func (m *Machine) execWideningMul(in *x64.Inst) {
	w := in.Opd[0].Width
	src := m.readOperand(in.Opd[0])
	a := m.readGPR(x64.RAX, w)
	var hiOut, loOut uint64
	var overflow bool
	if in.Op == x64.MUL {
		if w == 8 {
			hi, lo := bits.Mul64(a, src)
			hiOut, loOut = hi, lo
			overflow = hi != 0
		} else {
			full := a * src
			loOut = full & widthMask(w)
			hiOut = full >> widthBits(w) & widthMask(w)
			overflow = hiOut != 0
		}
	} else { // IMUL1
		sa, sb := signExtend(a, w), signExtend(src, w)
		if w == 8 {
			hi, lo := mulSigned(sa, sb)
			hiOut, loOut = uint64(hi), uint64(lo)
			overflow = hi != lo>>63
		} else {
			full := sa * sb
			loOut = uint64(full) & widthMask(w)
			hiOut = uint64(full>>widthBits(w)) & widthMask(w)
			overflow = full != signExtend(uint64(full)&widthMask(w), w)
		}
	}
	m.writeGPR(x64.RAX, w, loOut)
	m.writeGPR(x64.RDX, w, hiOut)
	m.setFlag(x64.CF, overflow)
	m.setFlag(x64.OF, overflow)
	m.szpFlags(loOut, w)
}

// execDivide implements div/idiv of RDX:RAX by the operand. Divide faults
// (zero divisor or quotient overflow) count a sigfpe and zero the outputs,
// the deterministic stand-in for the trapped instruction of §5.1.
func (m *Machine) execDivide(in *x64.Inst) {
	w := in.Opd[0].Width
	d := m.readOperand(in.Opd[0])
	lo := m.readGPR(x64.RAX, w)
	hi := m.readGPR(x64.RDX, w)

	fault := func() {
		m.sigfpe++
		m.writeGPR(x64.RAX, w, 0)
		m.writeGPR(x64.RDX, w, 0)
		m.setAllFlagsZero()
	}

	if in.Op == x64.DIV {
		if d == 0 || hi >= d && w == 8 {
			fault()
			return
		}
		var q, r uint64
		if w == 8 {
			q, r = bits.Div64(hi, lo, d)
		} else {
			full := hi<<widthBits(w) | lo
			if full/d > widthMask(w) {
				fault()
				return
			}
			q, r = full/d, full%d
		}
		m.writeGPR(x64.RAX, w, q)
		m.writeGPR(x64.RDX, w, r)
	} else { // IDIV
		if d == 0 {
			fault()
			return
		}
		if w == 8 {
			// Signed 128/64 divide. Only support dividends that fit 64
			// bits after sign extension check; otherwise fault (this is
			// the quotient-overflow case for all practical kernels).
			if hi != uint64(int64(lo)>>63) {
				fault()
				return
			}
			n, dv := int64(lo), int64(d)
			if n == -1<<63 && dv == -1 {
				fault()
				return
			}
			m.writeGPR(x64.RAX, w, uint64(n/dv))
			m.writeGPR(x64.RDX, w, uint64(n%dv))
		} else {
			full := int64(hi<<widthBits(w) | lo) // within 64 bits for w == 4
			full = signExtend(uint64(full), 8)   // already 64-bit
			dv := signExtend(d, w)
			q := full / dv
			if q != signExtend(uint64(q)&widthMask(w), w) {
				fault()
				return
			}
			m.writeGPR(x64.RAX, w, uint64(q)&widthMask(w))
			m.writeGPR(x64.RDX, w, uint64(full%dv)&widthMask(w))
		}
	}
	m.setAllFlagsZero()
}

// setAllFlagsZero fixes all five flags to zero (our deterministic model for
// flag states hardware leaves undefined after mul/div).
func (m *Machine) setAllFlagsZero() {
	for _, f := range []x64.FlagSet{x64.CF, x64.PF, x64.ZF, x64.SF, x64.OF} {
		m.setFlag(f, false)
	}
}

// execShift implements shl/shr/sar/rol/ror. A dynamic count of zero leaves
// all flags untouched, as on hardware.
func (m *Machine) execShift(in *x64.Inst) {
	w := in.Opd[1].Width
	bitsW := widthBits(w)
	var count uint64
	if in.Opd[0].Kind == x64.KindImm {
		count = uint64(in.Opd[0].Imm)
	} else {
		count = m.readGPR(x64.RCX, 1)
	}
	if w == 8 {
		count &= 63
	} else {
		count &= 31
	}
	a := m.readOperand(in.Opd[1])
	if count == 0 {
		m.writeOperand(in.Opd[1], a)
		return
	}
	var r uint64
	var cf bool
	switch in.Op {
	case x64.SHL:
		r = a << count & widthMask(w)
		cf = count <= uint64(bitsW) && a>>(uint64(bitsW)-count)&1 != 0
		m.setFlag(x64.CF, cf)
		m.setFlag(x64.OF, (r&signBit(w) != 0) != cf)
		m.szpFlags(r, w)
	case x64.SHR:
		r = a >> count
		cf = a>>(count-1)&1 != 0
		m.setFlag(x64.CF, cf)
		m.setFlag(x64.OF, a&signBit(w) != 0)
		m.szpFlags(r, w)
	case x64.SAR:
		r = uint64(signExtend(a, w)>>count) & widthMask(w)
		// The last bit shifted out, reading the sign-extended value so
		// that counts past the width see the sign bit (the deterministic
		// model the validator mirrors).
		cf = signExtend(a, w)>>min(count-1, 63)&1 != 0
		m.setFlag(x64.CF, cf)
		m.setFlag(x64.OF, false)
		m.szpFlags(r, w)
	case x64.ROL:
		c := count % uint64(bitsW)
		r = (a<<c | a>>(uint64(bitsW)-c)) & widthMask(w)
		if c == 0 {
			r = a
		}
		cf = r&1 != 0
		m.setFlag(x64.CF, cf)
		m.setFlag(x64.OF, (r&signBit(w) != 0) != cf)
	case x64.ROR:
		c := count % uint64(bitsW)
		r = (a>>c | a<<(uint64(bitsW)-c)) & widthMask(w)
		if c == 0 {
			r = a
		}
		m.setFlag(x64.CF, r&signBit(w) != 0)
		m.setFlag(x64.OF, (r&signBit(w) != 0) != (r&(signBit(w)>>1) != 0))
	}
	m.writeOperand(in.Opd[1], r)
}

// execDoubleShift implements shld/shrd with an immediate count.
func (m *Machine) execDoubleShift(in *x64.Inst) {
	w := in.Opd[2].Width
	bitsW := uint64(widthBits(w))
	count := uint64(in.Opd[0].Imm)
	if w == 8 {
		count &= 63
	} else {
		count &= 31
	}
	src := m.readOperand(in.Opd[1])
	dst := m.readOperand(in.Opd[2])
	if count == 0 {
		m.writeOperand(in.Opd[2], dst)
		return
	}
	var r uint64
	var cf bool
	if in.Op == x64.SHLD {
		r = (dst<<count | src>>(bitsW-count)) & widthMask(w)
		cf = dst>>(bitsW-count)&1 != 0
	} else {
		r = (dst>>count | src<<(bitsW-count)) & widthMask(w)
		cf = dst>>(count-1)&1 != 0
	}
	m.setFlag(x64.CF, cf)
	m.setFlag(x64.OF, (r&signBit(w) != 0) != (dst&signBit(w) != 0))
	m.szpFlags(r, w)
	m.writeOperand(in.Opd[2], r)
}

// sameReg reports whether two operands name the same register view.
func sameReg(a, b x64.Operand) bool {
	return a.Kind == x64.KindReg && b.Kind == x64.KindReg &&
		a.Reg == b.Reg && a.Width == b.Width
}

// signExtend sign-extends a width-w value to 64 bits.
func signExtend(v uint64, w uint8) int64 {
	switch w {
	case 1:
		return int64(int8(v))
	case 2:
		return int64(int16(v))
	case 4:
		return int64(int32(v))
	}
	return int64(v)
}

// mulSigned returns the full 128-bit signed product of a and b.
func mulSigned(a, b int64) (hi, lo int64) {
	h, l := bits.Mul64(uint64(a), uint64(b))
	h64 := int64(h)
	if a < 0 {
		h64 -= b
	}
	if b < 0 {
		h64 -= a
	}
	return h64, int64(l)
}
