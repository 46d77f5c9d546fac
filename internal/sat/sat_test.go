package sat

import (
	"math/rand"
	"testing"
)

func TestLubySequence(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Errorf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestTrivial(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if st := s.Solve(); st != Sat {
		t.Fatalf("unit clause: %v", st)
	}
	if !s.Value(a) {
		// Model is only guaranteed via SolveModel; re-check through it.
		s2 := New()
		a2 := s2.NewVar()
		s2.AddClause(MkLit(a2, false))
		st, m := s2.SolveModel()
		if st != Sat || !m[a2] {
			t.Fatal("unit clause model wrong")
		}
	}
}

func TestContradiction(t *testing.T) {
	s := New()
	a := s.NewVar()
	s.AddClause(MkLit(a, false))
	if ok := s.AddClause(MkLit(a, true)); ok {
		t.Fatal("contradictory units should report unsat at add time")
	}
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
}

func TestSmallUnsat(t *testing.T) {
	// (a|b) (a|!b) (!a|b) (!a|!b) is unsatisfiable.
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(MkLit(a, false), MkLit(b, false))
	s.AddClause(MkLit(a, false), MkLit(b, true))
	s.AddClause(MkLit(a, true), MkLit(b, false))
	s.AddClause(MkLit(a, true), MkLit(b, true))
	if st := s.Solve(); st != Unsat {
		t.Fatalf("got %v, want unsat", st)
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons in n holes, unsatisfiable.
func pigeonhole(n int) *Solver {
	s := New()
	vars := make([][]int, n+1)
	for p := 0; p <= n; p++ {
		vars[p] = make([]int, n)
		for h := 0; h < n; h++ {
			vars[p][h] = s.NewVar()
		}
	}
	for p := 0; p <= n; p++ {
		lits := make([]Lit, n)
		for h := 0; h < n; h++ {
			lits[h] = MkLit(vars[p][h], false)
		}
		s.AddClause(lits...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(MkLit(vars[p1][h], true), MkLit(vars[p2][h], true))
			}
		}
	}
	return s
}

func TestPigeonhole(t *testing.T) {
	for n := 2; n <= 6; n++ {
		if st := pigeonhole(n).Solve(); st != Unsat {
			t.Fatalf("PHP(%d+1,%d) = %v, want unsat", n, n, st)
		}
	}
}

func TestBudget(t *testing.T) {
	s := pigeonhole(9)
	s.Budget = 50
	if st := s.Solve(); st != Unknown {
		t.Fatalf("PHP(10,9) with 50-conflict budget = %v, want unknown", st)
	}
}

// bruteForce decides a CNF over nv variables by enumeration.
func bruteForce(nv int, cnf [][]Lit) bool {
	for mask := 0; mask < 1<<nv; mask++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				val := mask>>l.Var()&1 == 1
				if l.Neg() {
					val = !val
				}
				if val {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func TestRandom3SATAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		nv := 4 + rng.Intn(9) // 4..12 variables
		nc := 2 + rng.Intn(5*nv)
		var cnf [][]Lit
		s := New()
		for v := 0; v < nv; v++ {
			s.NewVar()
		}
		for c := 0; c < nc; c++ {
			var cl []Lit
			k := 1 + rng.Intn(3)
			for j := 0; j < k; j++ {
				cl = append(cl, MkLit(rng.Intn(nv), rng.Intn(2) == 0))
			}
			cnf = append(cnf, cl)
			s.AddClause(cl...)
		}
		want := bruteForce(nv, cnf)
		st, model := s.SolveModel()
		if (st == Sat) != want {
			t.Fatalf("iter %d: solver=%v brute=%v cnf=%v", iter, st, want, cnf)
		}
		if st == Sat {
			checkModel(t, cnf, model)
		}
	}
}

// checkModel fails the test on the first clause of cnf that model
// falsifies.
func checkModel(t *testing.T, cnf [][]Lit, model []bool) {
	t.Helper()
	for _, cl := range cnf {
		ok := false
		for _, l := range cl {
			if model[l.Var()] != l.Neg() {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("model does not satisfy %v", cl)
		}
	}
}

// randomMixedCNF draws nc clauses over nv variables, one in ten binary
// and the rest ternary.
func randomMixedCNF(rng *rand.Rand, nv, nc int) [][]Lit {
	cnf := make([][]Lit, nc)
	for c := range cnf {
		k := 3
		if rng.Intn(10) == 0 {
			k = 2
		}
		for j := 0; j < k; j++ {
			cnf[c] = append(cnf[c], MkLit(rng.Intn(nv), rng.Intn(2) == 0))
		}
	}
	return cnf
}

// solveCNF solves cnf over nv variables, with the learned-clause cap set
// to learnedCap when it is positive.
func solveCNF(nv int, cnf [][]Lit, learnedCap int) (*Solver, Status, []bool) {
	s := New()
	if learnedCap > 0 {
		s.learnedCap = learnedCap
	}
	for v := 0; v < nv; v++ {
		s.NewVar()
	}
	for _, cl := range cnf {
		s.AddClause(cl...)
	}
	st, model := s.SolveModel()
	return s, st, model
}

// TestMixedCNFWithClauseReduction solves random CNFs that mix binary and
// ternary clauses with the learned-clause cap lowered to 4, so that every
// restart deletes learned clauses, compacts the clause store and moves
// the reasons of the root-level trail. Small instances are checked
// against brute force; larger ones, which take enough conflicts to
// restart, against a solve with the default cap.
func TestMixedCNFWithClauseReduction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	reduced := 0
	for iter := 0; iter < 200; iter++ {
		nv, ratio := 8+rng.Intn(9), 43 // 8..16 variables
		if iter%2 == 1 {
			nv, ratio = 200+rng.Intn(50), 36
		}
		cnf := randomMixedCNF(rng, nv, nv*ratio/10)
		s, st, model := solveCNF(nv, cnf, 4)
		if s.learnedCap > 4 {
			reduced++
		}
		want := Unknown
		if nv <= 16 {
			want = Unsat
			if bruteForce(nv, cnf) {
				want = Sat
			}
		} else {
			_, want, _ = solveCNF(nv, cnf, 0)
		}
		if st != want {
			t.Fatalf("iter %d (%d vars): solver with cap 4 = %v, want %v", iter, nv, st, want)
		}
		if st == Sat {
			checkModel(t, cnf, model)
		}
	}
	if reduced < 20 {
		t.Fatalf("clause reduction ran on %d of 200 instances; the test needs harder instances", reduced)
	}
}

// TestPigeonholeWithClauseReduction runs a proof of thousands of
// conflicts, over binary at-most-one clauses and long at-least-one
// clauses, with clause reduction at every restart.
func TestPigeonholeWithClauseReduction(t *testing.T) {
	s := pigeonhole(7)
	s.learnedCap = 4
	if st := s.Solve(); st != Unsat {
		t.Fatalf("PHP(8,7) = %v, want unsat", st)
	}
	if s.learnedCap == 4 {
		t.Fatal("clause reduction never ran")
	}
}

// decide opens a new decision level and assigns l there.
func (s *Solver) decide(l Lit) {
	s.trailLim = append(s.trailLim, int32(len(s.trail)))
	s.uncheckedEnqueue(l, -1)
}

func TestBinaryConflictClause(t *testing.T) {
	// (¬x ∨ y) (¬a ∨ ¬x ∨ z) (¬y ∨ ¬z): with a decided at level 1 and x at
	// level 2, x implies y (binary reason) and z, and the binary clause
	// (¬y ∨ ¬z) is the conflict. The first UIP is x; the learned clause is
	// (¬x ∨ ¬a), asserting at level 1.
	s := New()
	a, x, y, z := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	pos := func(v int) Lit { return MkLit(v, false) }
	neg := func(v int) Lit { return MkLit(v, true) }
	s.AddClause(neg(x), pos(y))
	s.AddClause(neg(a), neg(x), pos(z))
	s.AddClause(neg(y), neg(z))
	s.decide(pos(a))
	if c := s.propagate(); c != -1 {
		t.Fatalf("level 1 conflict %d", c)
	}
	s.decide(pos(x))
	confl := s.propagate()
	if confl < 0 {
		t.Fatal("no conflict at level 2")
	}
	if got := s.clauseLits(confl); len(got) != 2 {
		t.Fatalf("conflict clause %v, want (¬y ∨ ¬z)", got)
	}
	learnt, bt := s.analyze(confl)
	if len(learnt) != 2 || learnt[0] != neg(x) || learnt[1] != neg(a) || bt != 1 {
		t.Fatalf("learned %v at level %d, want [¬x ¬a] at level 1", learnt, bt)
	}
}

func TestBinaryReasonInConflict(t *testing.T) {
	// (¬x ∨ y) (¬y ∨ w) (¬a ∨ ¬w ∨ ¬y): x at level 2 implies y and w
	// through binary clauses whose implied literal is stored second; the
	// ternary clause is the conflict. Analysis must skip w itself in w's
	// binary reason and stop at the first UIP y: learned (¬y ∨ ¬a).
	s := New()
	a, x, y, w := s.NewVar(), s.NewVar(), s.NewVar(), s.NewVar()
	pos := func(v int) Lit { return MkLit(v, false) }
	neg := func(v int) Lit { return MkLit(v, true) }
	s.AddClause(neg(x), pos(y))
	s.AddClause(neg(y), pos(w))
	s.AddClause(neg(a), neg(w), neg(y))
	s.decide(pos(a))
	if c := s.propagate(); c != -1 {
		t.Fatalf("level 1 conflict %d", c)
	}
	s.decide(pos(x))
	confl := s.propagate()
	if confl < 0 || len(s.clauseLits(confl)) != 3 {
		t.Fatalf("conflict %d, want the ternary clause", confl)
	}
	learnt, bt := s.analyze(confl)
	if len(learnt) != 2 || learnt[0] != neg(y) || learnt[1] != neg(a) || bt != 1 {
		t.Fatalf("learned %v at level %d, want [¬y ¬a] at level 1", learnt, bt)
	}
}
