package sat_test

import (
	"testing"

	"repro/internal/bv"
	"repro/internal/sat"
)

// mulAddMiter bit-blasts the negation of x*10 + z == z + ((x<<3) + (x+x))
// over 32-bit vectors: two forms of one multiply-add, so the formula is
// unsatisfiable. The proof takes about 11.5k conflicts, past the first
// learned-clause reduction.
func mulAddMiter() *sat.Solver {
	b := bv.NewBuilder()
	x, z := b.Var(32, "x"), b.Var(32, "z")
	c := func(v uint64) *bv.Term { return b.Const(32, v) }
	s := sat.New()
	bl := bv.NewBlaster(s)
	lhs := b.Add(b.Mul(x, c(10)), z)
	rhs := b.Add(z, b.Add(b.Shl(x, c(3)), b.Add(x, x)))
	bl.AssertTrue(b.Ne(lhs, rhs))
	return s
}

// BenchmarkSolve measures encoding and solving the multiply-add miter,
// with allocations.
func BenchmarkSolve(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		s := mulAddMiter()
		if st := s.Solve(); st != sat.Unsat {
			b.Fatalf("miter is %v, want unsat", st)
		}
		b.ReportMetric(float64(s.Conflicts()), "conflicts")
	}
}
