package verify_test

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bv"
	"repro/internal/kernels"
	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/internal/x64"
)

// suiteQuery returns a suite kernel's -O0 target, its gcc -O3 form and the
// live outputs the validator compares.
func suiteQuery(tb testing.TB, name string) (target, gcc *x64.Program, live verify.LiveOut) {
	tb.Helper()
	k, err := kernels.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	live = verify.LiveOut{GPRs: k.Spec.LiveOut.GPRs, Xmms: k.Spec.LiveOut.Xmms,
		Flags: k.Spec.LiveOut.Flags, Mem: k.LiveMem}
	return k.Target, k.GccO3, live
}

// TestStackTrafficForwarded checks that loads from rsp-relative stack
// slots resolve to the stored values at translation time: no Hacker's
// Delight -O0 target reads initial memory. A store through a pointer the
// builder cannot compare with the stack address must still reach the
// formula as a guarded choice, and the solver must find the aliasing
// state that tells the two programs apart.
func TestStackTrafficForwarded(t *testing.T) {
	for i := 1; i <= 25; i++ {
		name := fmt.Sprintf("p%02d", i)
		target, _, _ := suiteQuery(t, name)
		if _, mem0 := verify.Translate(target); mem0 != 0 {
			t.Errorf("%s: -O0 target reads initial memory %d times, want 0", name, mem0)
		}
	}

	spill := x64.MustParse("movq rdx, -8(rsp)\nmovq rsi, (rdi)\nmovq -8(rsp), rax")
	regs, mem0 := verify.Translate(spill)
	if mem0 != 0 {
		t.Errorf("spill under a pointer store reads initial memory %d times, want 0", mem0)
	}
	if !hasIte(regs[x64.RAX]) {
		t.Fatalf("reload past a pointer store built %v, want a guarded choice", regs[x64.RAX])
	}
	direct := x64.MustParse("movq rdx, rax")
	rax := verify.LiveOut{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 8}}}
	res := verify.Equivalent(context.Background(), spill, direct, rax, verify.DefaultConfig)
	if res.Verdict != verify.NotEqual {
		t.Fatalf("reload past a pointer store vs direct move: %v, want not-equal", res.Verdict)
	}
	// The stored quadword [rdi, rdi+8) must overlap the slot [rsp-8, rsp).
	if d := int64(res.Cex.Regs[x64.RDI] - res.Cex.Regs[x64.RSP]); d < -15 || d > -1 {
		t.Errorf("counterexample rdi-rsp = %d does not overlap the slot at rsp-8", d)
	}
}

// hasIte reports whether t contains an if-then-else term.
func hasIte(t *bv.Term) bool {
	if t.Op == bv.OpIte {
		return true
	}
	for _, a := range t.Args {
		if hasIte(a) {
			return true
		}
	}
	return false
}
