package bv

import (
	"math/rand"
	"testing"
)

// foldNode pairs a built (and so folded) term with a reference that
// computes the same value with masked machine arithmetic.
type foldNode struct {
	t   *Term
	ref func(env *Env) uint64
}

// foldGen builds random chains of Add, Sub, Eq and Concat-of-Extract over
// variables and uninterpreted applications of one width.
type foldGen struct {
	b       *Builder
	rng     *rand.Rand
	w       uint8
	leaves  []*Term
	decided int // equalities of two offset chains that folded to a constant
}

// offset returns a constant offset that is small, small and negative, or
// arbitrary, so sums wrap modulo 2^w.
func (g *foldGen) offset() uint64 {
	switch g.rng.Intn(3) {
	case 0:
		return uint64(g.rng.Intn(33))
	case 1:
		return -uint64(g.rng.Intn(33))
	}
	return g.rng.Uint64()
}

// addConst adds c to n through one of the builder's offset forms.
func (g *foldGen) addConst(n foldNode, c uint64) foldNode {
	b, m := g.b, mask(g.w)
	ref := func(env *Env) uint64 { return (n.ref(env) + c) & m }
	switch g.rng.Intn(3) {
	case 0:
		return foldNode{b.Add(n.t, b.Const(g.w, c)), ref}
	case 1:
		return foldNode{b.Add(b.Const(g.w, c), n.t), ref}
	}
	return foldNode{b.Sub(n.t, b.Const(g.w, -c)), ref}
}

func (g *foldGen) gen(depth int) foldNode {
	b, w, m := g.b, g.w, mask(g.w)
	if depth == 0 || g.rng.Intn(5) == 0 {
		l := g.leaves[g.rng.Intn(len(g.leaves))]
		return foldNode{l, func(env *Env) uint64 { return Eval(l, env) }}
	}
	switch g.rng.Intn(6) {
	case 0:
		return g.addConst(g.gen(depth-1), g.offset())
	case 1:
		x, y := g.gen(depth-1), g.gen(depth-1)
		if g.rng.Intn(2) == 0 {
			return foldNode{b.Add(x.t, y.t), func(env *Env) uint64 { return (x.ref(env) + y.ref(env)) & m }}
		}
		return foldNode{b.Sub(x.t, y.t), func(env *Env) uint64 { return (x.ref(env) - y.ref(env)) & m }}
	case 2, 3:
		// Two offset chains over one base; half the time their offsets
		// sum to the same value modulo 2^w by different routes.
		base := g.gen(depth - 1)
		p, q := base, base
		total := uint64(0)
		for n := g.rng.Intn(3); n >= 0; n-- {
			c := g.offset()
			total += c
			p = g.addConst(p, c)
		}
		if g.rng.Intn(2) == 0 {
			c := g.offset()
			q = g.addConst(g.addConst(q, c), total-c)
		} else {
			q = g.addConst(q, g.offset())
		}
		eq := b.Eq(p.t, q.t)
		if eq.Op == OpConst {
			g.decided++
		}
		cond := func(env *Env) bool { return p.ref(env) == q.ref(env) }
		if g.rng.Intn(2) == 0 {
			return foldNode{b.Zext(eq, w), func(env *Env) uint64 {
				if cond(env) {
					return 1
				}
				return 0
			}}
		}
		x, y := g.gen(depth-1), g.gen(depth-1)
		return foldNode{b.Ite(eq, x.t, y.t), func(env *Env) uint64 {
			if cond(env) {
				return x.ref(env)
			}
			return y.ref(env)
		}}
	case 4:
		// Concat(Extract(v, j, n), Extract(v, i, k)), zero-extended; half
		// the time the slices are adjacent (j = i+k) and reassemble.
		v := g.gen(depth - 1)
		k := 1 + g.rng.Intn(int(w)-1)
		n := 1 + g.rng.Intn(int(w)-k)
		i := g.rng.Intn(int(w) - k - n + 1)
		j := i + k
		if g.rng.Intn(2) == 0 {
			j = g.rng.Intn(int(w) - n + 1)
		}
		r := b.Concat(b.Extract(v.t, uint8(j), uint8(n)), b.Extract(v.t, uint8(i), uint8(k)))
		return foldNode{b.Zext(r, w), func(env *Env) uint64 {
			x := v.ref(env)
			return (x>>j&mask(uint8(n)))<<k | x>>i&mask(uint8(k))
		}}
	default:
		// A little-endian load of every byte of v, as memory reads build it.
		v := g.gen(depth - 1)
		out := b.Extract(v.t, 0, 8)
		for i := uint8(8); i < w; i += 8 {
			out = b.Concat(b.Extract(v.t, i, 8), out)
		}
		return foldNode{out, v.ref}
	}
}

// TestFoldsAgreeWithArithmetic checks the builder's offset, equality and
// reassembly folds for soundness: for random nested terms at widths 8, 16,
// 32 and 64, the evaluator must give the folded term the value that plain
// masked arithmetic gives the unfolded computation, in every environment.
func TestFoldsAgreeWithArithmetic(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, w := range []uint8{8, 16, 32, 64} {
		b := NewBuilder()
		x, y := b.Var(w, "x"), b.Var(w, "y")
		g := &foldGen{b: b, rng: rng, w: w,
			leaves: []*Term{x, y, b.App("f", w, x), b.App("g", w, y)}}
		for iter := 0; iter < 400; iter++ {
			n := g.gen(4)
			for e := 0; e < 8; e++ {
				env := &Env{Vars: map[string]uint64{"x": rng.Uint64(), "y": rng.Uint64()}}
				switch e {
				case 0:
					env.Vars["y"] = env.Vars["x"]
				case 1:
					env.Vars["x"] = 0
				}
				if got, want := Eval(n.t, env), n.ref(env); got != want {
					t.Fatalf("w=%d: %v = %#x under x=%#x y=%#x, want %#x",
						w, n.t, got, env.Vars["x"], env.Vars["y"], want)
				}
			}
		}
		if g.decided < 50 {
			t.Fatalf("w=%d: only %d offset equalities folded", w, g.decided)
		}
	}
}
