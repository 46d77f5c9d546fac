// Package bv implements a hash-consed bit-vector term language with light
// algebraic simplification, a concrete evaluator, and a Tseitin bit-blaster
// onto the CDCL solver in internal/sat. Together with internal/sat it fills
// the role STP plays for STOKE (§5.2): deciding quantifier-free bit-vector
// queries and producing counterexample models.
//
// Builder folds a term while building it, so that what the validator asks
// is decided at the word level where it can be, before bit-blasting. Every
// fold replaces a term with one that has the same value in every
// environment (modulo 2^w at width w):
//
//   - Constant operands fold, and identities such as x & 0, x | 0, x ^ x,
//     x + 0 and ite(c, x, x) reduce.
//   - Offsets are canonical. Add puts a constant operand on the right and
//     reassociates (x + c1) + c2 to x + (c1+c2), and Sub(x, c) builds
//     x + (-c). Both are the ring laws of addition modulo 2^w, so every
//     constant offset from a base term has one form: rsp-8 built as
//     (rsp-16)+8 is the same term as rsp-8 built directly.
//   - Equality of offsets is decided. Eq(x + c1, x + c2) folds to the
//     constant c1 = c2, with x taken as x + 0. Adding a constant is a
//     bijection on w-bit values, so the two sides are equal exactly when
//     the offsets are, whatever x is.
//   - Slices reassemble. Concat(Extract(v, i+k, m), Extract(v, i, k)) is
//     bits [i, i+k+m) of v, so it folds to Extract(v, i, k+m), and
//     Extract of the whole of v is v. A little-endian load of the bytes of
//     a stored value thus gives back the value itself.
//
// The validator's memory model relies on the offset and equality folds:
// they decide which stores a stack load reads (internal/verify).
//
// Terms are at most 64 bits wide; the verifier models 128-bit products as
// pairs of 64-bit terms. Uninterpreted functions (§5.2 treats 64-bit
// multiplication and division as uninterpreted) are App terms; Builder
// records every application so the verifier can assert Ackermann
// consistency constraints.
package bv

import (
	"fmt"
	"math/bits"
)

// Op is a term constructor.
type Op uint8

// Term constructors.
const (
	OpConst Op = iota
	OpVar
	OpApp // uninterpreted function application

	OpNot
	OpAnd
	OpOr
	OpXor

	OpNeg
	OpAdd
	OpSub
	OpMul

	OpShl  // a << b (b same width; counts >= width give 0)
	OpLshr // a >> b logical
	OpAshr // a >> b arithmetic

	OpExtract // bits [Lo, Lo+Width) of arg
	OpConcat  // hi ++ lo (width = sum)
	OpZext    // zero extend
	OpSext    // sign extend

	OpEq  // 1-bit
	OpUlt // 1-bit, unsigned <
	OpIte // cond(1), then, else
)

// Term is an immutable, hash-consed bit-vector expression node.
type Term struct {
	Op    Op
	Width uint8 // 1..64
	Val   uint64
	Name  string // Var and App
	Lo    uint8  // Extract
	Args  []*Term
	ID    int32
}

func (t *Term) String() string {
	switch t.Op {
	case OpConst:
		return fmt.Sprintf("%d'#x%x", t.Width, t.Val)
	case OpVar:
		return t.Name
	case OpApp:
		s := t.Name + "("
		for i, a := range t.Args {
			if i > 0 {
				s += ","
			}
			s += a.String()
		}
		return s + ")"
	case OpExtract:
		return fmt.Sprintf("%s[%d:%d]", t.Args[0], t.Lo+t.Width-1, t.Lo)
	}
	names := map[Op]string{
		OpNot: "not", OpAnd: "and", OpOr: "or", OpXor: "xor", OpNeg: "neg",
		OpAdd: "add", OpSub: "sub", OpMul: "mul", OpShl: "shl",
		OpLshr: "lshr", OpAshr: "ashr", OpConcat: "concat", OpZext: "zext",
		OpSext: "sext", OpEq: "=", OpUlt: "ult", OpIte: "ite",
	}
	s := names[t.Op] + "("
	for i, a := range t.Args {
		if i > 0 {
			s += ","
		}
		s += a.String()
	}
	return s + ")"
}

// IsConst reports whether t is a constant, returning its value.
func (t *Term) IsConst() (uint64, bool) {
	if t.Op == OpConst {
		return t.Val, true
	}
	return 0, false
}

type key struct {
	op         Op
	width, lo  uint8
	val        uint64
	name       string
	a0, a1, a2 int32
}

// Builder creates and hash-conses terms. It is not safe for concurrent use.
type Builder struct {
	terms map[key]*Term
	next  int32

	// Apps records every uninterpreted application, per function name, for
	// Ackermann expansion.
	Apps map[string][]*Term
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{terms: map[key]*Term{}, Apps: map[string][]*Term{}}
}

func mask(w uint8) uint64 {
	if w >= 64 {
		return ^uint64(0)
	}
	return 1<<w - 1
}

func (b *Builder) intern(t *Term) *Term {
	k := key{op: t.Op, width: t.Width, lo: t.Lo, val: t.Val, name: t.Name}
	ids := [3]int32{-1, -1, -1}
	for i, a := range t.Args {
		ids[i] = a.ID
	}
	k.a0, k.a1, k.a2 = ids[0], ids[1], ids[2]
	if got, ok := b.terms[k]; ok {
		return got
	}
	t.ID = b.next
	b.next++
	b.terms[k] = t
	if t.Op == OpApp {
		b.Apps[t.Name] = append(b.Apps[t.Name], t)
	}
	return t
}

// Const builds a w-bit constant.
func (b *Builder) Const(w uint8, v uint64) *Term {
	return b.intern(&Term{Op: OpConst, Width: w, Val: v & mask(w)})
}

// Var builds (or returns) the named w-bit input variable.
func (b *Builder) Var(w uint8, name string) *Term {
	return b.intern(&Term{Op: OpVar, Width: w, Name: name})
}

// App builds an application of the named uninterpreted function.
func (b *Builder) App(name string, w uint8, args ...*Term) *Term {
	return b.intern(&Term{Op: OpApp, Width: w, Name: name, Args: args})
}

// True and False are the 1-bit constants.
func (b *Builder) True() *Term  { return b.Const(1, 1) }
func (b *Builder) False() *Term { return b.Const(1, 0) }

func (b *Builder) unary(op Op, a *Term, f func(uint64) uint64) *Term {
	if v, ok := a.IsConst(); ok {
		return b.Const(a.Width, f(v))
	}
	return b.intern(&Term{Op: op, Width: a.Width, Args: []*Term{a}})
}

// Not is bitwise complement.
func (b *Builder) Not(a *Term) *Term {
	if a.Op == OpNot {
		return a.Args[0]
	}
	return b.unary(OpNot, a, func(v uint64) uint64 { return ^v })
}

// Neg is two's complement negation.
func (b *Builder) Neg(a *Term) *Term {
	return b.unary(OpNeg, a, func(v uint64) uint64 { return -v })
}

func (b *Builder) binary(op Op, x, y *Term, f func(a, c uint64) uint64) *Term {
	if x.Width != y.Width {
		panic(fmt.Sprintf("bv: width mismatch %d vs %d in %v", x.Width, y.Width, op))
	}
	xv, xc := x.IsConst()
	yv, yc := y.IsConst()
	if xc && yc {
		return b.Const(x.Width, f(xv, yv))
	}
	return b.intern(&Term{Op: op, Width: x.Width, Args: []*Term{x, y}})
}

// And is bitwise conjunction.
func (b *Builder) And(x, y *Term) *Term {
	if v, ok := x.IsConst(); ok {
		if v == 0 {
			return b.Const(x.Width, 0)
		}
		if v == mask(x.Width) {
			return y
		}
	}
	if v, ok := y.IsConst(); ok {
		if v == 0 {
			return b.Const(x.Width, 0)
		}
		if v == mask(x.Width) {
			return x
		}
	}
	if x == y {
		return x
	}
	return b.binary(OpAnd, x, y, func(a, c uint64) uint64 { return a & c })
}

// Or is bitwise disjunction.
func (b *Builder) Or(x, y *Term) *Term {
	if v, ok := x.IsConst(); ok {
		if v == 0 {
			return y
		}
		if v == mask(x.Width) {
			return x
		}
	}
	if v, ok := y.IsConst(); ok {
		if v == 0 {
			return x
		}
		if v == mask(y.Width) {
			return y
		}
	}
	if x == y {
		return x
	}
	return b.binary(OpOr, x, y, func(a, c uint64) uint64 { return a | c })
}

// Xor is bitwise exclusive or.
func (b *Builder) Xor(x, y *Term) *Term {
	if x == y {
		return b.Const(x.Width, 0)
	}
	if v, ok := x.IsConst(); ok && v == 0 {
		return y
	}
	if v, ok := y.IsConst(); ok && v == 0 {
		return x
	}
	return b.binary(OpXor, x, y, func(a, c uint64) uint64 { return a ^ c })
}

// Add is modular addition. A constant operand goes on the right, and
// (x + c1) + c2 reassociates to x + (c1+c2), so every constant offset
// from a base term has one canonical form.
func (b *Builder) Add(x, y *Term) *Term {
	if x.Width != y.Width {
		panic(fmt.Sprintf("bv: width mismatch %d vs %d in %v", x.Width, y.Width, OpAdd))
	}
	if x.Op == OpConst {
		x, y = y, x
	}
	if v, ok := y.IsConst(); ok {
		if v == 0 {
			return x
		}
		if base, c := offset(x); base != x {
			return b.Add(base, b.Const(x.Width, c+v))
		}
	}
	return b.binary(OpAdd, x, y, func(a, c uint64) uint64 { return a + c })
}

// offset splits t into a base term and a constant offset: x + c gives
// (x, c), and any other term gives (t, 0).
func offset(t *Term) (*Term, uint64) {
	if t.Op == OpAdd && t.Args[1].Op == OpConst {
		return t.Args[0], t.Args[1].Val
	}
	return t, 0
}

// Sub is modular subtraction; x - c becomes x + (-c).
func (b *Builder) Sub(x, y *Term) *Term {
	if v, ok := y.IsConst(); ok {
		return b.Add(x, b.Const(y.Width, -v))
	}
	if x == y {
		return b.Const(x.Width, 0)
	}
	return b.binary(OpSub, x, y, func(a, c uint64) uint64 { return a - c })
}

// Mul is modular multiplication (bit-blasted shift-add; the verifier uses
// uninterpreted functions for wide multiplies instead, per §5.2).
func (b *Builder) Mul(x, y *Term) *Term {
	if v, ok := x.IsConst(); ok {
		switch v {
		case 0:
			return b.Const(x.Width, 0)
		case 1:
			return y
		}
	}
	if v, ok := y.IsConst(); ok {
		switch v {
		case 0:
			return b.Const(x.Width, 0)
		case 1:
			return x
		}
	}
	return b.binary(OpMul, x, y, func(a, c uint64) uint64 { return a * c })
}

// Shl is a left shift by a same-width amount; counts >= width yield zero.
func (b *Builder) Shl(x, y *Term) *Term {
	if v, ok := y.IsConst(); ok && v == 0 {
		return x
	}
	return b.binary(OpShl, x, y, func(a, c uint64) uint64 {
		if c >= uint64(x.Width) {
			return 0
		}
		return a << c
	})
}

// Lshr is a logical right shift; counts >= width yield zero.
func (b *Builder) Lshr(x, y *Term) *Term {
	if v, ok := y.IsConst(); ok && v == 0 {
		return x
	}
	return b.binary(OpLshr, x, y, func(a, c uint64) uint64 {
		if c >= uint64(x.Width) {
			return 0
		}
		return (a & mask(x.Width)) >> c
	})
}

// Ashr is an arithmetic right shift; counts >= width replicate the sign.
func (b *Builder) Ashr(x, y *Term) *Term {
	if v, ok := y.IsConst(); ok && v == 0 {
		return x
	}
	w := x.Width
	return b.binary(OpAshr, x, y, func(a, c uint64) uint64 {
		sign := a >> (w - 1) & 1
		if c >= uint64(w) {
			if sign == 1 {
				return mask(w)
			}
			return 0
		}
		v := (a & mask(w)) >> c
		if sign == 1 {
			v |= mask(w) &^ (mask(w) >> c)
		}
		return v
	})
}

// Extract selects bits [lo, lo+w) of a.
func (b *Builder) Extract(a *Term, lo, w uint8) *Term {
	if lo == 0 && w == a.Width {
		return a
	}
	if lo+w > a.Width {
		panic(fmt.Sprintf("bv: extract [%d,%d) out of %d-bit term", lo, lo+w, a.Width))
	}
	if v, ok := a.IsConst(); ok {
		return b.Const(w, v>>lo)
	}
	// extract of extract
	if a.Op == OpExtract {
		return b.Extract(a.Args[0], a.Lo+lo, w)
	}
	return b.intern(&Term{Op: OpExtract, Width: w, Lo: lo, Args: []*Term{a}})
}

// Concat joins hi ++ lo; the result width is the sum (must be <= 64).
func (b *Builder) Concat(hi, lo *Term) *Term {
	w := hi.Width + lo.Width
	if w > 64 || hi.Width+lo.Width < hi.Width {
		panic("bv: concat wider than 64 bits")
	}
	hv, hc := hi.IsConst()
	lv, lc := lo.IsConst()
	if hc && lc {
		return b.Const(w, hv<<lo.Width|lv)
	}
	// Adjacent slices of one term reassemble: v[i+k+m-1:i+k] ++ v[i+k-1:i]
	// is v[i+k+m-1:i].
	if hi.Op == OpExtract && lo.Op == OpExtract && hi.Args[0] == lo.Args[0] &&
		hi.Lo == lo.Lo+lo.Width {
		return b.Extract(lo.Args[0], lo.Lo, w)
	}
	return b.intern(&Term{Op: OpConcat, Width: w, Args: []*Term{hi, lo}})
}

// Zext zero-extends a to w bits.
func (b *Builder) Zext(a *Term, w uint8) *Term {
	if w == a.Width {
		return a
	}
	if w < a.Width {
		panic("bv: zext narrows")
	}
	if v, ok := a.IsConst(); ok {
		return b.Const(w, v)
	}
	return b.intern(&Term{Op: OpZext, Width: w, Args: []*Term{a}})
}

// Sext sign-extends a to w bits.
func (b *Builder) Sext(a *Term, w uint8) *Term {
	if w == a.Width {
		return a
	}
	if w < a.Width {
		panic("bv: sext narrows")
	}
	if v, ok := a.IsConst(); ok {
		sign := v >> (a.Width - 1) & 1
		if sign == 1 {
			v |= mask(w) &^ mask(a.Width)
		}
		return b.Const(w, v)
	}
	return b.intern(&Term{Op: OpSext, Width: w, Args: []*Term{a}})
}

// Eq is the 1-bit equality predicate.
func (b *Builder) Eq(x, y *Term) *Term {
	if x.Width != y.Width {
		panic("bv: eq width mismatch")
	}
	if x == y {
		return b.True()
	}
	xv, xc := x.IsConst()
	yv, yc := y.IsConst()
	if xc && yc {
		if xv == yv {
			return b.True()
		}
		return b.False()
	}
	// x + c1 = x + c2 holds exactly when c1 = c2: adding a constant is a
	// bijection on w-bit values.
	xb, xo := offset(x)
	yb, yo := offset(y)
	if xb == yb {
		if xo == yo {
			return b.True()
		}
		return b.False()
	}
	return b.intern(&Term{Op: OpEq, Width: 1, Args: []*Term{x, y}})
}

// Ult is the 1-bit unsigned less-than predicate.
func (b *Builder) Ult(x, y *Term) *Term {
	if x.Width != y.Width {
		panic("bv: ult width mismatch")
	}
	if x == y {
		return b.False()
	}
	xv, xc := x.IsConst()
	yv, yc := y.IsConst()
	if yc && yv == 0 {
		return b.False()
	}
	if xc && yc {
		if xv < yv {
			return b.True()
		}
		return b.False()
	}
	return b.intern(&Term{Op: OpUlt, Width: 1, Args: []*Term{x, y}})
}

// Slt is the signed less-than predicate, lowered to Ult with flipped signs.
func (b *Builder) Slt(x, y *Term) *Term {
	sign := b.Const(x.Width, 1<<(x.Width-1))
	return b.Ult(b.Xor(x, sign), b.Xor(y, sign))
}

// Ite is the if-then-else selector; cond must be 1-bit.
func (b *Builder) Ite(cond, then, els *Term) *Term {
	if cond.Width != 1 {
		panic("bv: ite condition must be 1-bit")
	}
	if then == els {
		return then
	}
	if v, ok := cond.IsConst(); ok {
		if v == 1 {
			return then
		}
		return els
	}
	if then.Width != els.Width {
		panic("bv: ite arm width mismatch")
	}
	return b.intern(&Term{Op: OpIte, Width: then.Width, Args: []*Term{cond, then, els}})
}

// BoolAnd / BoolOr / BoolNot are 1-bit logical helpers.
func (b *Builder) BoolAnd(x, y *Term) *Term { return b.And(x, y) }
func (b *Builder) BoolOr(x, y *Term) *Term  { return b.Or(x, y) }
func (b *Builder) BoolNot(x *Term) *Term    { return b.Not(x) }

// Implies builds x -> y over 1-bit terms.
func (b *Builder) Implies(x, y *Term) *Term { return b.Or(b.Not(x), y) }

// Ne is the negated equality predicate.
func (b *Builder) Ne(x, y *Term) *Term { return b.Not(b.Eq(x, y)) }

// PopCountConst is a helper used in tests.
func PopCountConst(v uint64) int { return bits.OnesCount64(v) }

// NumTerms returns the number of distinct terms interned so far.
func (b *Builder) NumTerms() int { return len(b.terms) }
