package verify_test

import (
	"context"
	"testing"

	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/internal/x64"
)

// TestSolverTrajectoryGolden pins the verdict, the encoded clause count and
// the conflict count of a fixed set of equivalence queries. The solver is
// deterministic, so any change to the order in which it propagates,
// learns or reduces clauses moves a conflict count; a change to the clause
// store's layout alone must leave every row as it is. The clause counts
// also pin the formula the translation hands the solver: the -O0 suite
// rows (p22 and p24 among them) stay small only while stack loads forward
// from their stores at the term level. A change to term folding or the
// memory model moves these counts but must keep every verdict. The rows
// cover suite targets against their -O3 rewrites and against refuting
// candidates, a query that uses three uninterpreted functions (memory,
// and the low and high halves of a 64-bit multiply), and one whose
// proof runs past 8192 learned clauses, so that learned-clause reduction
// runs.
func TestSolverTrajectoryGolden(t *testing.T) {
	eax := verify.LiveOut{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 4}}}
	rax := verify.LiveOut{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 8}}}
	p01, p01gcc, p01live := suiteQuery(t, "p01")
	_, p02gcc, _ := suiteQuery(t, "p02")
	p03, p03gcc, p03live := suiteQuery(t, "p03")
	p10, p10gcc, p10live := suiteQuery(t, "p10")
	_, p11gcc, _ := suiteQuery(t, "p11")
	p22, p22gcc, p22live := suiteQuery(t, "p22")
	p24, p24gcc, p24live := suiteQuery(t, "p24")

	cases := []struct {
		name      string
		a, b      *x64.Program
		live      verify.LiveOut
		verdict   verify.Verdict
		clauses   int
		conflicts int64
	}{
		{"p01 vs gcc", p01, p01gcc, p01live, verify.Equal, 803, 154},
		{"p03 vs gcc", p03, p03gcc, p03live, verify.Equal, 617, 112},
		{"p10 vs gcc", p10, p10gcc, p10live, verify.Equal, 3548, 515},
		{"p22 vs gcc", p22, p22gcc, p22live, verify.Equal, 1036, 332},
		{"p24 vs gcc", p24, p24gcc, p24live, verify.Equal, 1832, 161},
		{"p01 vs p02 gcc", p01, p02gcc, p01live, verify.NotEqual, 1020, 0},
		{"p10 vs p11 gcc", p10, p11gcc, p10live, verify.NotEqual, 3420, 31},
		{"imul 10 vs lea and add", // past 8192 learned clauses
			x64.MustParse("movl edi, eax\nimull 10, eax, eax\naddl esi, eax"),
			x64.MustParse("leal (rdi,rdi,4), eax\naddl eax, eax\naddl esi, eax"),
			eax, verify.Equal, 5578, 11711},
		{"imul 10 vs wrong shift-add",
			x64.MustParse("imull 10, edi, eax\naddl esi, eax"),
			x64.MustParse("movl edi, eax\nshll 3, eax\naddl edi, eax\naddl esi, eax"),
			eax, verify.NotEqual, 4477, 12},
		{"memory and imulq", memMulA, memMulB, rax, verify.NotEqual, 15590, 130},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := verify.Equivalent(context.Background(), c.a, c.b, c.live, verify.DefaultConfig)
			if res.Verdict != c.verdict || res.Clauses != c.clauses || res.Conflicts != c.conflicts {
				t.Fatalf("got %v with %d clauses and %d conflicts, want %v with %d and %d",
					res.Verdict, res.Clauses, res.Conflicts, c.verdict, c.clauses, c.conflicts)
			}
		})
	}
}

// memMulA and memMulB multiply two loaded quadwords and rsi in different
// orders; the validator sees memory and both halves of the 64-bit
// multiply as uninterpreted functions, so the products do not match.
var (
	memMulA = x64.MustParse("movq (rdi), rax\nimulq 8(rdi), rax\nimulq rsi, rax")
	memMulB = x64.MustParse("movq rsi, rax\nimulq (rdi), rax\nimulq 8(rdi), rax")
)

// TestMultiFunctionQueryDeterministic repeats a query over three
// uninterpreted functions: its Ackermann constraints, and so the clause
// order and the solver's conflicts, must not depend on map order.
func TestMultiFunctionQueryDeterministic(t *testing.T) {
	rax := verify.LiveOut{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 8}}}
	first := verify.Equivalent(context.Background(), memMulA, memMulB, rax, verify.DefaultConfig)
	for i := 1; i < 20; i++ {
		res := verify.Equivalent(context.Background(), memMulA, memMulB, rax, verify.DefaultConfig)
		if res.Verdict != first.Verdict || res.Clauses != first.Clauses || res.Conflicts != first.Conflicts {
			t.Fatalf("run %d: %v with %d clauses and %d conflicts; run 0: %v with %d and %d",
				i, res.Verdict, res.Clauses, res.Conflicts, first.Verdict, first.Clauses, first.Conflicts)
		}
	}
}
