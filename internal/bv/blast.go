package bv

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/sat"
)

// Blaster lowers terms to CNF over a sat.Solver via Tseitin encoding:
// ripple-carry adders, shift-add multipliers, barrel shifters, and
// fresh-variable vectors for inputs and uninterpreted applications.
type Blaster struct {
	S *sat.Solver

	bits map[*Term][]sat.Lit

	// constant literals
	lTrue, lFalse sat.Lit
}

// NewBlaster wraps a solver.
func NewBlaster(s *sat.Solver) *Blaster {
	b := &Blaster{S: s, bits: map[*Term][]sat.Lit{}}
	v := s.NewVar()
	b.lTrue = sat.MkLit(v, false)
	b.lFalse = b.lTrue.Not()
	s.AddClause(b.lTrue)
	return b
}

func (b *Blaster) constLit(v bool) sat.Lit {
	if v {
		return b.lTrue
	}
	return b.lFalse
}

func (b *Blaster) fresh() sat.Lit { return sat.MkLit(b.S.NewVar(), false) }

// gate helpers ---------------------------------------------------------

func (b *Blaster) mkAnd(x, y sat.Lit) sat.Lit {
	switch {
	case x == b.lFalse || y == b.lFalse:
		return b.lFalse
	case x == b.lTrue:
		return y
	case y == b.lTrue:
		return x
	case x == y:
		return x
	case x == y.Not():
		return b.lFalse
	}
	g := b.fresh()
	b.S.AddClause(g.Not(), x)
	b.S.AddClause(g.Not(), y)
	b.S.AddClause(g, x.Not(), y.Not())
	return g
}

func (b *Blaster) mkOr(x, y sat.Lit) sat.Lit {
	return b.mkAnd(x.Not(), y.Not()).Not()
}

func (b *Blaster) mkXor(x, y sat.Lit) sat.Lit {
	switch {
	case x == b.lFalse:
		return y
	case y == b.lFalse:
		return x
	case x == b.lTrue:
		return y.Not()
	case y == b.lTrue:
		return x.Not()
	case x == y:
		return b.lFalse
	case x == y.Not():
		return b.lTrue
	}
	g := b.fresh()
	b.S.AddClause(g.Not(), x, y)
	b.S.AddClause(g.Not(), x.Not(), y.Not())
	b.S.AddClause(g, x.Not(), y)
	b.S.AddClause(g, x, y.Not())
	return g
}

// mkMux returns c ? t : e.
func (b *Blaster) mkMux(c, t, e sat.Lit) sat.Lit {
	switch {
	case c == b.lTrue:
		return t
	case c == b.lFalse:
		return e
	case t == e:
		return t
	}
	g := b.fresh()
	b.S.AddClause(c.Not(), t.Not(), g)
	b.S.AddClause(c.Not(), t, g.Not())
	b.S.AddClause(c, e.Not(), g)
	b.S.AddClause(c, e, g.Not())
	return g
}

// mkMaj returns the majority of three literals (the carry function).
func (b *Blaster) mkMaj(x, y, c sat.Lit) sat.Lit {
	return b.mkOr(b.mkAnd(x, y), b.mkOr(b.mkAnd(x, c), b.mkAnd(y, c)))
}

// adder computes sum and carry-out of x + y + cin.
func (b *Blaster) adder(x, y []sat.Lit, cin sat.Lit) (sum []sat.Lit, cout sat.Lit) {
	n := len(x)
	sum = make([]sat.Lit, n)
	c := cin
	for i := 0; i < n; i++ {
		sum[i] = b.mkXor(b.mkXor(x[i], y[i]), c)
		c = b.mkMaj(x[i], y[i], c)
	}
	return sum, c
}

func (b *Blaster) notBits(x []sat.Lit) []sat.Lit {
	out := make([]sat.Lit, len(x))
	for i, l := range x {
		out[i] = l.Not()
	}
	return out
}

// Bits lowers t and returns its literal vector, least significant first.
func (b *Blaster) Bits(t *Term) []sat.Lit {
	if got, ok := b.bits[t]; ok {
		return got
	}
	var out []sat.Lit
	w := int(t.Width)
	switch t.Op {
	case OpConst:
		out = make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			out[i] = b.constLit(t.Val>>i&1 == 1)
		}
	case OpVar, OpApp:
		// Fresh variable vectors. Applications get Ackermann constraints
		// from AssertFunConsistency.
		for _, a := range t.Args {
			b.Bits(a) // ensure argument bits exist for Ackermann
		}
		out = make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			out[i] = b.fresh()
		}
	case OpNot:
		out = b.notBits(b.Bits(t.Args[0]))
	case OpAnd, OpOr, OpXor:
		x, y := b.Bits(t.Args[0]), b.Bits(t.Args[1])
		out = make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			switch t.Op {
			case OpAnd:
				out[i] = b.mkAnd(x[i], y[i])
			case OpOr:
				out[i] = b.mkOr(x[i], y[i])
			case OpXor:
				out[i] = b.mkXor(x[i], y[i])
			}
		}
	case OpAdd:
		out, _ = b.adder(b.Bits(t.Args[0]), b.Bits(t.Args[1]), b.lFalse)
	case OpSub:
		out, _ = b.adder(b.Bits(t.Args[0]), b.notBits(b.Bits(t.Args[1])), b.lTrue)
	case OpNeg:
		zero := make([]sat.Lit, w)
		for i := range zero {
			zero[i] = b.lFalse
		}
		out, _ = b.adder(zero, b.notBits(b.Bits(t.Args[0])), b.lTrue)
	case OpMul:
		x, y := b.Bits(t.Args[0]), b.Bits(t.Args[1])
		acc := make([]sat.Lit, w)
		for i := range acc {
			acc[i] = b.lFalse
		}
		for i := 0; i < w; i++ {
			// acc += (y & x_i) << i
			addend := make([]sat.Lit, w)
			for j := 0; j < w; j++ {
				if j < i {
					addend[j] = b.lFalse
				} else {
					addend[j] = b.mkAnd(x[i], y[j-i])
				}
			}
			acc, _ = b.adder(acc, addend, b.lFalse)
		}
		out = acc
	case OpShl, OpLshr, OpAshr:
		out = b.blastShift(t)
	case OpExtract:
		src := b.Bits(t.Args[0])
		out = src[t.Lo : int(t.Lo)+w]
	case OpConcat:
		hi, lo := b.Bits(t.Args[0]), b.Bits(t.Args[1])
		out = append(append([]sat.Lit{}, lo...), hi...)
	case OpZext:
		src := b.Bits(t.Args[0])
		out = append([]sat.Lit{}, src...)
		for len(out) < w {
			out = append(out, b.lFalse)
		}
	case OpSext:
		src := b.Bits(t.Args[0])
		out = append([]sat.Lit{}, src...)
		sign := src[len(src)-1]
		for len(out) < w {
			out = append(out, sign)
		}
	case OpEq:
		x, y := b.Bits(t.Args[0]), b.Bits(t.Args[1])
		acc := b.lTrue
		for i := range x {
			acc = b.mkAnd(acc, b.mkXor(x[i], y[i]).Not())
		}
		out = []sat.Lit{acc}
	case OpUlt:
		x, y := b.Bits(t.Args[0]), b.Bits(t.Args[1])
		// x < y  <=>  borrow out of x - y.
		_, cout := b.adder(x, b.notBits(y), b.lTrue)
		out = []sat.Lit{cout.Not()}
	case OpIte:
		c := b.Bits(t.Args[0])[0]
		x, y := b.Bits(t.Args[1]), b.Bits(t.Args[2])
		out = make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			out[i] = b.mkMux(c, x[i], y[i])
		}
	default:
		panic(fmt.Sprintf("bv: blast of op %d", t.Op))
	}
	if len(out) != w {
		panic(fmt.Sprintf("bv: blasted %d bits for %d-bit term %v", len(out), w, t))
	}
	b.bits[t] = out
	return out
}

// blastShift encodes shl/lshr/ashr with a barrel shifter over the shift
// amount's non-constant bits.
func (b *Blaster) blastShift(t *Term) []sat.Lit {
	w := int(t.Width)
	val := b.Bits(t.Args[0])
	sh := b.Bits(t.Args[1])
	cur := append([]sat.Lit{}, val...)

	var fill sat.Lit
	switch t.Op {
	case OpAshr:
		fill = val[w-1]
	default:
		fill = b.lFalse
	}

	for k := 0; k < len(sh); k++ {
		bit := sh[k]
		if bit == b.lFalse {
			continue
		}
		shift := w // any stage at or beyond the width saturates
		if k < 30 && 1<<k < w {
			shift = 1 << k
		}
		next := make([]sat.Lit, w)
		for i := 0; i < w; i++ {
			var shifted sat.Lit
			switch t.Op {
			case OpShl:
				if i >= shift {
					shifted = cur[i-shift]
				} else {
					shifted = b.lFalse
				}
			default: // right shifts
				if i+shift < w {
					shifted = cur[i+shift]
				} else {
					shifted = fill
				}
			}
			next[i] = b.mkMux(bit, shifted, cur[i])
		}
		cur = next
	}
	return cur
}

// AssertTrue requires the 1-bit term t to hold.
func (b *Blaster) AssertTrue(t *Term) {
	if t.Width != 1 {
		panic("bv: AssertTrue on wide term")
	}
	b.S.AddClause(b.Bits(t)[0])
}

// AssertFalse requires the 1-bit term t not to hold.
func (b *Blaster) AssertFalse(t *Term) {
	if t.Width != 1 {
		panic("bv: AssertFalse on wide term")
	}
	b.S.AddClause(b.Bits(t)[0].Not())
}

// AssertFunConsistency adds Ackermann constraints for every pair of
// applications of the same uninterpreted function recorded by the builder:
// equal arguments force equal results. This is how 64-bit multiplication
// and division stay uninterpreted yet functionally consistent (§5.2).
// Functions are visited in name order so the clause and variable order,
// and with it the solver's trajectory, is the same on every run.
func (b *Blaster) AssertFunConsistency(builder *Builder) {
	for _, name := range slices.Sorted(maps.Keys(builder.Apps)) {
		apps := builder.Apps[name]
		for i := 0; i < len(apps); i++ {
			for j := i + 1; j < len(apps); j++ {
				f, g := apps[i], apps[j]
				if len(f.Args) != len(g.Args) {
					continue
				}
				argsEq := builder.True()
				for k := range f.Args {
					if f.Args[k].Width != g.Args[k].Width {
						argsEq = builder.False()
						break
					}
					argsEq = builder.And(argsEq, builder.Eq(f.Args[k], g.Args[k]))
				}
				b.AssertTrue(builder.Implies(argsEq, builder.Eq(f, g)))
			}
		}
	}
}

// TryValueOf reads the concrete value of t out of a model if t was blasted.
func (b *Blaster) TryValueOf(t *Term, model []bool) (uint64, bool) {
	if _, ok := b.bits[t]; !ok {
		return 0, false
	}
	return b.ValueOf(t, model), true
}

// ValueOf reads the concrete value of t out of a model returned by
// sat.Solver.SolveModel. The term must have been blasted.
func (b *Blaster) ValueOf(t *Term, model []bool) uint64 {
	lits, ok := b.bits[t]
	if !ok {
		panic("bv: ValueOf on unblasted term")
	}
	var v uint64
	for i, l := range lits {
		bit := model[l.Var()]
		if l.Neg() {
			bit = !bit
		}
		if bit {
			v |= 1 << i
		}
	}
	return v
}
