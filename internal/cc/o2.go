package cc

import (
	"fmt"
	"math/bits"

	"repro/internal/x64"
)

// Flavor selects the production-compiler persona of the -O3 style backend.
type Flavor uint8

// Compiler flavors for the Figure 10 comparators.
const (
	// FlavorGCC folds constants, strength-reduces multiplies and uses
	// conditional moves for selects.
	FlavorGCC Flavor = iota
	// FlavorICC matches the paper's observations about icc on these
	// kernels: no multiply strength reduction (the list benchmark note in
	// §6.3) and branchy select lowering.
	FlavorICC
)

// CompileO2 lowers f with -O3-style choices: constant folding, greedy
// register allocation with no stack traffic, strength reduction and cmov
// if-conversion (flavor-dependent).
func CompileO2(f *Func, flavor Flavor) *x64.Program {
	g := &o2gen{
		flavor: flavor,
		locals: map[string]regVal{},
		inUse:  map[x64.Reg]bool{},
	}
	// Parameters stay in their ABI registers; reserve them.
	for i := range f.Params {
		r, _, _, _ := x64.LookupReg(argRegName(i))
		g.inUse[r] = true
		g.params = append(g.params, r)
	}
	for _, st := range f.Body {
		switch s := st.(type) {
		case *Let:
			rv := g.expr(fold(s.X))
			g.locals[s.Name] = rv
		case *Store:
			v := g.expr(fold(s.X))
			b := g.expr(fold(s.Base))
			w := s.X.typ().Width()
			g.emit(x64.MakeInst(x64.MOV, x64.R(v.reg, w), x64.Mem(b.reg, s.Off, w)))
			g.release(v)
			g.release(b)
		case *Return:
			rv := g.expr(fold(s.X))
			w := s.X.typ().Width()
			if rv.reg != x64.RAX {
				g.emit(x64.MakeInst(x64.MOV, x64.R(rv.reg, w), x64.R(x64.RAX, w)))
			}
			g.release(rv)
		}
	}
	p := &x64.Program{Insts: g.prog}
	if err := p.Validate(); err != nil {
		panic("cc: O2 emitted invalid code: " + err.Error())
	}
	return p
}

// regVal is an expression result: a register plus whether the register is a
// temporary this expression owns (parameters and locals are borrowed).
type regVal struct {
	reg   x64.Reg
	owned bool
}

type o2gen struct {
	flavor Flavor
	prog   []x64.Inst
	locals map[string]regVal
	params []x64.Reg
	inUse  map[x64.Reg]bool
	labels int16
}

// allocOrder is the temp allocation preference (no ABI concerns inside a
// simulated kernel, so callee-saved registers join the pool). RAX stays out
// of the pool: divides and the return path claim it.
var allocOrder = []x64.Reg{
	x64.R10, x64.R11, x64.R8, x64.R9,
	x64.RBX, x64.RBP, x64.R12, x64.R13, x64.R14, x64.R15,
	x64.RDX, x64.RCX, x64.RSI, x64.RDI,
}

func (g *o2gen) emit(in x64.Inst) { g.prog = append(g.prog, in) }

func (g *o2gen) alloc() x64.Reg {
	for _, r := range allocOrder {
		if !g.inUse[r] {
			g.inUse[r] = true
			return r
		}
	}
	panic("cc: register pressure exceeded the O2 allocator")
}

func (g *o2gen) release(rv regVal) {
	if rv.owned {
		g.inUse[rv.reg] = false
	}
}

// own returns rv if owned, else copies it into a fresh temp so it can be
// used as a mutable destination.
func (g *o2gen) own(rv regVal, w uint8) regVal {
	if rv.owned {
		return rv
	}
	dst := g.alloc()
	g.emit(x64.MakeInst(x64.MOV, x64.R(rv.reg, w), x64.R(dst, w)))
	return regVal{reg: dst, owned: true}
}

func (g *o2gen) newLabel() int16 {
	g.labels++
	return g.labels - 1
}

// expr compiles e into a register.
func (g *o2gen) expr(e Expr) regVal {
	w := e.typ().Width()
	switch n := e.(type) {
	case *Param:
		return regVal{reg: g.params[n.Index]}
	case *VarRef:
		rv, ok := g.locals[n.Name]
		if !ok {
			panic("cc: unbound local " + n.Name)
		}
		return regVal{reg: rv.reg}
	case *Const:
		dst := g.alloc()
		if n.T == I64 && (n.Val > 1<<31-1 || n.Val < -(1<<31)) {
			g.emit(x64.MakeInst(x64.MOVABS, x64.Imm(n.Val, 8), x64.R64(dst)))
		} else {
			g.emit(x64.MakeInst(x64.MOV, x64.Imm(n.Val, w), x64.R(dst, w)))
		}
		return regVal{reg: dst, owned: true}
	case *Un:
		rv := g.own(g.expr(n.X), w)
		op := x64.NOT
		if n.Op == OpNeg {
			op = x64.NEG
		}
		g.emit(x64.MakeInst(op, x64.R(rv.reg, w)))
		return rv
	case *Load:
		b := g.expr(n.Base)
		dst := g.alloc()
		g.emit(x64.MakeInst(x64.MOV, x64.Mem(b.reg, n.Off, w), x64.R(dst, w)))
		g.release(b)
		return regVal{reg: dst, owned: true}
	case *Sel:
		return g.sel(n, w)
	case *Bin:
		return g.binExpr(n, w)
	}
	panic("cc: unknown expression")
}

func (g *o2gen) binExpr(n *Bin, w uint8) regVal {
	// Strength reduction: multiply by a power-of-two constant becomes a
	// shift under the gcc flavor (§6.3 notes icc skips it).
	if n.Op == OpMul && g.flavor == FlavorGCC {
		if c, ok := n.Y.(*Const); ok && c.Val > 0 && bits.OnesCount64(uint64(c.Val)) == 1 {
			sh := int64(bits.TrailingZeros64(uint64(c.Val)))
			return g.binExpr(&Bin{Op: OpShl, X: n.X, Y: &Const{Val: sh, T: n.X.typ()}}, w)
		}
	}

	if n.Op.isCmp() {
		x := g.expr(n.X)
		y := g.expr(n.Y)
		// The xor-zero + setcc idiom production compilers use: zeroing
		// first avoids a partial write into an undefined register (and
		// the partial-register stall on hardware). The xor must precede
		// the compare — it clobbers flags.
		dst := g.alloc()
		g.emit(x64.MakeInst(x64.XOR, x64.R(dst, 4), x64.R(dst, 4)))
		g.emit(x64.MakeInst(x64.CMP, x64.R(y.reg, w), x64.R(x.reg, w)))
		g.release(x)
		g.release(y)
		g.emit(x64.MakeCCInst(x64.SETcc, ccOf(n.Op), x64.R8L(dst)))
		return regVal{reg: dst, owned: true}
	}

	switch n.Op {
	case OpShl, OpLshr, OpAshr:
		op := map[BinOp]x64.Opcode{OpShl: x64.SHL, OpLshr: x64.SHR, OpAshr: x64.SAR}[n.Op]
		dst := g.own(g.expr(n.X), w)
		if c, ok := n.Y.(*Const); ok {
			g.emit(x64.MakeInst(op, x64.Imm(c.Val, w), x64.R(dst.reg, w)))
			return dst
		}
		cnt := g.expr(n.Y)
		if g.inUse[x64.RCX] && cnt.reg != x64.RCX {
			panic("cc: variable shift needs rcx")
		}
		if cnt.reg != x64.RCX {
			g.emit(x64.MakeInst(x64.MOV, x64.R(cnt.reg, w), x64.R(x64.RCX, w)))
		}
		g.release(cnt)
		g.emit(x64.MakeInst(op, x64.R8L(x64.RCX), x64.R(dst.reg, w)))
		return dst
	case OpDivU:
		x := g.expr(n.X)
		y := g.expr(n.Y)
		// The divide pins RAX (kept out of the allocation pool) and RDX.
		if g.inUse[x64.RDX] && y.reg != x64.RDX {
			panic("cc: divide needs rdx free")
		}
		if x.reg != x64.RAX {
			g.emit(x64.MakeInst(x64.MOV, x64.R(x.reg, w), x64.R(x64.RAX, w)))
		}
		g.emit(x64.MakeInst(x64.MOV, x64.Imm(0, w), x64.R(x64.RDX, w)))
		g.emit(x64.MakeInst(x64.DIV, x64.R(y.reg, w)))
		g.release(x)
		g.release(y)
		g.inUse[x64.RAX] = true
		return regVal{reg: x64.RAX, owned: true}
	}

	op := map[BinOp]x64.Opcode{
		OpAdd: x64.ADD, OpSub: x64.SUB, OpMul: x64.IMUL,
		OpAnd: x64.AND, OpOr: x64.OR, OpXor: x64.XOR,
	}[n.Op]
	dst := g.own(g.expr(n.X), w)
	if c, ok := n.Y.(*Const); ok && op != x64.IMUL {
		g.emit(x64.MakeInst(op, x64.Imm(c.Val, w), x64.R(dst.reg, w)))
		return dst
	}
	y := g.expr(n.Y)
	g.emit(x64.MakeInst(op, x64.R(y.reg, w), x64.R(dst.reg, w)))
	g.release(y)
	return dst
}

// sel lowers select(cond, a, b): cmov under gcc, a forward branch under icc.
func (g *o2gen) sel(n *Sel, w uint8) regVal {
	// Both arms are evaluated before the condition so their code cannot
	// clobber the flags the conditional move consumes (expressions are
	// pure, so hoisting them is sound).
	a := g.expr(n.A)
	b := g.expr(n.B)

	// Evaluate the condition into flags: a comparison condition is used
	// directly; anything else is tested against zero.
	var cc x64.Cond
	if cmp, ok := n.Cond.(*Bin); ok && cmp.Op.isCmp() {
		x := g.expr(cmp.X)
		y := g.expr(cmp.Y)
		cw := cmp.X.typ().Width()
		g.emit(x64.MakeInst(x64.CMP, x64.R(y.reg, cw), x64.R(x.reg, cw)))
		g.release(x)
		g.release(y)
		cc = ccOf(cmp.Op)
	} else {
		c := g.expr(n.Cond)
		cw := n.Cond.typ().Width()
		g.emit(x64.MakeInst(x64.TEST, x64.R(c.reg, cw), x64.R(c.reg, cw)))
		g.release(c)
		cc = x64.CondNE
	}

	dst := g.own(b, w)
	if g.flavor == FlavorICC {
		skip := g.newLabel()
		g.emit(x64.MakeCCInst(x64.Jcc, negateCond(cc), x64.LabelRef(skip)))
		g.emit(x64.MakeInst(x64.MOV, x64.R(a.reg, w), x64.R(dst.reg, w)))
		g.emit(x64.MakeInst(x64.LABEL, x64.LabelRef(skip)))
	} else {
		g.emit(x64.MakeCCInst(x64.CMOVcc, cc, x64.R(a.reg, w), x64.R(dst.reg, w)))
	}
	g.release(a)
	return dst
}

func negateCond(c x64.Cond) x64.Cond {
	switch c {
	case x64.CondE:
		return x64.CondNE
	case x64.CondNE:
		return x64.CondE
	case x64.CondA:
		return x64.CondBE
	case x64.CondAE:
		return x64.CondB
	case x64.CondB:
		return x64.CondAE
	case x64.CondBE:
		return x64.CondA
	case x64.CondG:
		return x64.CondLE
	case x64.CondGE:
		return x64.CondL
	case x64.CondL:
		return x64.CondGE
	case x64.CondLE:
		return x64.CondG
	case x64.CondS:
		return x64.CondNS
	case x64.CondNS:
		return x64.CondS
	case x64.CondO:
		return x64.CondNO
	case x64.CondNO:
		return x64.CondO
	case x64.CondP:
		return x64.CondNP
	case x64.CondNP:
		return x64.CondP
	}
	panic(fmt.Sprintf("cc: negate of %v", c))
}
