package bv

import (
	"math/rand"
	"testing"

	"repro/internal/sat"
)

// randomTerm builds a random term over two variables of the given width.
func randomTerm(b *Builder, rng *rand.Rand, x, y *Term, depth int) *Term {
	w := x.Width
	if depth == 0 {
		switch rng.Intn(3) {
		case 0:
			return x
		case 1:
			return y
		default:
			return b.Const(w, rng.Uint64())
		}
	}
	sub := func() *Term { return randomTerm(b, rng, x, y, depth-1) }
	switch rng.Intn(14) {
	case 0:
		return b.Not(sub())
	case 1:
		return b.And(sub(), sub())
	case 2:
		return b.Or(sub(), sub())
	case 3:
		return b.Xor(sub(), sub())
	case 4:
		return b.Add(sub(), sub())
	case 5:
		return b.Sub(sub(), sub())
	case 6:
		return b.Neg(sub())
	case 7:
		return b.Shl(sub(), b.Const(w, uint64(rng.Intn(int(w)+4))))
	case 8:
		return b.Lshr(sub(), b.Const(w, uint64(rng.Intn(int(w)+4))))
	case 9:
		return b.Ashr(sub(), b.Const(w, uint64(rng.Intn(int(w)+4))))
	case 10:
		return b.Ite(b.Eq(sub(), sub()), sub(), sub())
	case 11:
		return b.Ite(b.Ult(sub(), sub()), sub(), sub())
	case 12:
		if w <= 16 {
			return b.Mul(sub(), sub())
		}
		return b.Add(sub(), sub())
	default:
		// variable shift
		return b.Lshr(sub(), b.And(sub(), b.Const(w, 7)))
	}
}

// TestBlasterAgreesWithEvaluator is the core soundness property: for random
// terms and random inputs, the SAT encoding must pin the term to exactly the
// value the concrete evaluator computes.
func TestBlasterAgreesWithEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 120; iter++ {
		width := []uint8{1, 8, 16, 32, 64}[rng.Intn(5)]
		b := NewBuilder()
		x := b.Var(width, "x")
		y := b.Var(width, "y")
		term := randomTerm(b, rng, x, y, 3)

		vx, vy := rng.Uint64()&mask(width), rng.Uint64()&mask(width)
		want := Eval(term, &Env{Vars: map[string]uint64{"x": vx, "y": vy}})

		s := sat.New()
		bl := NewBlaster(s)
		bl.AssertTrue(b.Eq(x, b.Const(width, vx)))
		bl.AssertTrue(b.Eq(y, b.Const(width, vy)))
		bl.AssertTrue(b.Ne(term, b.Const(width, want)))
		if st := s.Solve(); st != sat.Unsat {
			t.Fatalf("iter %d: term %v with x=%#x y=%#x: blaster disagrees with evaluator (want %#x): %v",
				iter, term, vx, vy, want, st)
		}
	}
}

func TestBlasterFindsModels(t *testing.T) {
	// x + y == 10 && x < y has solutions; extract one and check it.
	b := NewBuilder()
	x := b.Var(8, "x")
	y := b.Var(8, "y")
	s := sat.New()
	bl := NewBlaster(s)
	bl.AssertTrue(b.Eq(b.Add(x, y), b.Const(8, 10)))
	bl.AssertTrue(b.Ult(x, y))
	st, model := s.SolveModel()
	if st != sat.Sat {
		t.Fatalf("expected sat, got %v", st)
	}
	vx := bl.ValueOf(x, model)
	vy := bl.ValueOf(y, model)
	if byte(vx+vy) != 10 || vx >= vy {
		t.Fatalf("bad model: x=%d y=%d", vx, vy)
	}
}

func TestMultiplierEncoding(t *testing.T) {
	// 8-bit multiplication: check a few concrete products through SAT.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		a, c := uint64(rng.Intn(256)), uint64(rng.Intn(256))
		b := NewBuilder()
		x := b.Var(8, "x")
		y := b.Var(8, "y")
		s := sat.New()
		bl := NewBlaster(s)
		bl.AssertTrue(b.Eq(x, b.Const(8, a)))
		bl.AssertTrue(b.Eq(y, b.Const(8, c)))
		bl.AssertTrue(b.Ne(b.Mul(x, y), b.Const(8, a*c)))
		if st := s.Solve(); st != sat.Unsat {
			t.Fatalf("%d*%d: %v", a, c, st)
		}
	}
}

func TestCommutativityProvable(t *testing.T) {
	// x*y == y*x over 8 bits must be valid (negation unsat).
	b := NewBuilder()
	x := b.Var(8, "x")
	y := b.Var(8, "y")
	s := sat.New()
	bl := NewBlaster(s)
	bl.AssertTrue(b.Ne(b.Mul(x, y), b.Mul(y, x)))
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("multiplication commutativity refuted: %v", st)
	}
}

func TestAckermannConsistency(t *testing.T) {
	// With f uninterpreted: x == y must force f(x) == f(y).
	b := NewBuilder()
	x := b.Var(16, "x")
	y := b.Var(16, "y")
	fx := b.App("f", 16, x)
	fy := b.App("f", 16, y)
	s := sat.New()
	bl := NewBlaster(s)
	bl.AssertTrue(b.Eq(x, y))
	bl.AssertTrue(b.Ne(fx, fy))
	bl.AssertFunConsistency(b)
	if st := s.Solve(); st != sat.Unsat {
		t.Fatalf("Ackermann consistency violated: %v", st)
	}

	// But distinct arguments leave the results free.
	b2 := NewBuilder()
	x2 := b2.Var(16, "x")
	y2 := b2.Var(16, "y")
	s2 := sat.New()
	bl2 := NewBlaster(s2)
	bl2.AssertTrue(b2.Ne(x2, y2))
	bl2.AssertTrue(b2.Ne(b2.App("f", 16, x2), b2.App("f", 16, y2)))
	bl2.AssertFunConsistency(b2)
	if st := s2.Solve(); st != sat.Sat {
		t.Fatalf("uninterpreted function over-constrained: %v", st)
	}
}

func TestHashConsing(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	y := b.Var(32, "y")
	if b.Add(x, y) != b.Add(x, y) {
		t.Fatal("identical terms not shared")
	}
	if b.Add(x, y) == b.Add(y, x) {
		t.Fatal("distinct terms merged")
	}
	if b.Const(8, 300) != b.Const(8, 44) {
		t.Fatal("constants not masked to width")
	}
}

func TestFolding(t *testing.T) {
	b := NewBuilder()
	x := b.Var(32, "x")
	cases := []struct {
		got, want *Term
	}{
		{b.And(x, b.Const(32, 0)), b.Const(32, 0)},
		{b.And(x, b.Const(32, 0xffffffff)), x},
		{b.Or(x, b.Const(32, 0)), x},
		{b.Xor(x, x), b.Const(32, 0)},
		{b.Add(x, b.Const(32, 0)), x},
		{b.Ite(b.True(), x, b.Const(32, 5)), x},
		{b.Extract(b.Concat(b.Const(16, 0xdead), b.Const(16, 0xbeef)), 0, 16), b.Const(16, 0xbeef)},
		{b.Eq(x, x), b.True()},
		{b.Shl(b.Const(32, 1), b.Const(32, 35)), b.Const(32, 0)},
		{b.Add(b.Const(32, 3), x), b.Add(x, b.Const(32, 3))},
		{b.Add(b.Add(x, b.Const(32, 3)), b.Const(32, 5)), b.Add(x, b.Const(32, 8))},
		{b.Sub(x, b.Const(32, 8)), b.Add(x, b.Const(32, 0xfffffff8))},
		{b.Add(b.Sub(x, b.Const(32, 8)), b.Const(32, 8)), x},
		{b.Eq(b.Sub(x, b.Const(32, 8)), b.Add(b.Sub(x, b.Const(32, 16)), b.Const(32, 8))), b.True()},
		{b.Eq(b.Sub(x, b.Const(32, 8)), b.Sub(x, b.Const(32, 16))), b.False()},
		{b.Eq(x, b.Add(x, b.Const(32, 1))), b.False()},
		{b.Concat(b.Extract(x, 8, 8), b.Extract(x, 0, 8)), b.Extract(x, 0, 16)},
		{b.Concat(b.Extract(x, 16, 16), b.Extract(x, 0, 16)), x},
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Errorf("case %d: got %v, want %v", i, c.got, c.want)
		}
	}
}

func TestSextZextEval(t *testing.T) {
	b := NewBuilder()
	x := b.Var(8, "x")
	env := &Env{Vars: map[string]uint64{"x": 0x80}}
	if got := Eval(b.Sext(x, 16), env); got != 0xff80 {
		t.Errorf("sext(0x80) = %#x, want 0xff80", got)
	}
	if got := Eval(b.Zext(x, 16), env); got != 0x80 {
		t.Errorf("zext(0x80) = %#x, want 0x80", got)
	}
}
