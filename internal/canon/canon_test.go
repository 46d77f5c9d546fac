package canon

import (
	"math/rand"
	"testing"

	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/internal/x64"
)

func live64(regs ...x64.Reg) verify.LiveOut {
	var lo verify.LiveOut
	for _, r := range regs {
		lo.GPRs = append(lo.GPRs, testgen.LiveReg{Reg: r, Width: 8})
	}
	return lo
}

// TestAlphaEquivalentCollide drives the core property through register
// renamings, live-out renamings, and label renumberings: α-equivalent
// submissions share a fingerprint, behaviourally distinct ones do not.
func TestAlphaEquivalentCollide(t *testing.T) {
	cases := []struct {
		name  string
		a, b  string
		liveA verify.LiveOut
		liveB verify.LiveOut
		same  bool
	}{
		{
			name:  "register renaming",
			a:     "movq rdi, rax\naddq rsi, rax",
			b:     "movq r8, rbx\naddq r9, rbx",
			liveA: live64(x64.RAX),
			liveB: live64(x64.RBX),
			same:  true,
		},
		{
			name:  "live-out normalisation",
			a:     "movq rdi, rax\naddq rsi, rax",
			b:     "movq rdi, rsi\naddq rdx, rsi",
			liveA: live64(x64.RAX),
			liveB: live64(x64.RSI),
			same:  true,
		},
		{
			name:  "distinct opcode",
			a:     "movq rdi, rax\naddq rsi, rax",
			b:     "movq rdi, rax\nsubq rsi, rax",
			liveA: live64(x64.RAX),
			liveB: live64(x64.RAX),
			same:  false,
		},
		{
			name:  "distinct live-out width",
			a:     "movq rdi, rax",
			b:     "movq rdi, rax",
			liveA: live64(x64.RAX),
			liveB: verify.LiveOut{GPRs: []testgen.LiveReg{{Reg: x64.RAX, Width: 4}}},
			same:  false,
		},
		{
			name: "operand-role collision stays distinct",
			// a computes rdi+rsi, b computes rsi+rdi into the other source —
			// α-equivalent as written (addition commutes structurally after
			// renaming), so these must collide...
			a:     "movq rdi, rax\naddq rsi, rax",
			b:     "movq rsi, rax\naddq rdi, rax",
			liveA: live64(x64.RAX),
			liveB: live64(x64.RAX),
			same:  true,
		},
		{
			name: "shared source is structural",
			// ...but a kernel reusing one source register twice is NOT
			// α-equivalent to one using two distinct sources.
			a:     "movq rdi, rax\naddq rdi, rax",
			b:     "movq rdi, rax\naddq rsi, rax",
			liveA: live64(x64.RAX),
			liveB: live64(x64.RAX),
			same:  false,
		},
		{
			name:  "pinned implicit registers block renaming",
			a:     "movq rdi, rax\nmulq rsi",
			b:     "movq rdi, rbx\nmulq rsi",
			liveA: live64(x64.RAX),
			liveB: live64(x64.RBX),
			same:  false, // mulq writes rax:rdx; rbx is a different kernel
		},
		{
			name:  "label renumbering",
			a:     "cmpq rsi, rdi\njle .L5\nmovq rsi, rax\n.L5:",
			b:     "cmpq rsi, rdi\njle .L0\nmovq rsi, rax\n.L0:",
			liveA: live64(x64.RAX),
			liveB: live64(x64.RAX),
			same:  true,
		},
		{
			name:  "memory base renaming",
			a:     "movq (rdi), rax\naddq 8(rdi), rax",
			b:     "movq (rcx), rax\naddq 8(rcx), rax",
			liveA: live64(x64.RAX),
			liveB: live64(x64.RAX),
			same:  true,
		},
		{
			name: "commutative addressing orientation",
			// The leading moves force both registers into a fixed renaming
			// order, so the two orientations of the scale-1 operand reach
			// the fingerprint with genuinely swapped base/index — only the
			// normalisation pass can merge them.
			a:     "movq rdi, rcx\nmovq rsi, rdx\nmovq (rdi,rsi,1), rax",
			b:     "movq rdi, rcx\nmovq rsi, rdx\nmovq (rsi,rdi,1), rax",
			liveA: live64(x64.RAX),
			liveB: live64(x64.RAX),
			same:  true,
		},
		{
			name: "scaled addressing is not commutative",
			// base + 2·index is asymmetric: swapping the registers is a
			// different address, and must stay a different fingerprint.
			a:     "movq rdi, rcx\nmovq rsi, rdx\nmovq (rdi,rsi,2), rax",
			b:     "movq rdi, rcx\nmovq rsi, rdx\nmovq (rsi,rdi,2), rax",
			liveA: live64(x64.RAX),
			liveB: live64(x64.RAX),
			same:  false,
		},
		{
			name:  "index-only folds into the base form",
			a:     "movq (,rdi,1), rax",
			b:     "movq (rdi), rax",
			liveA: live64(x64.RAX),
			liveB: live64(x64.RAX),
			same:  true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fa := Canonicalize(x64.MustParse(tc.a), tc.liveA)
			fb := Canonicalize(x64.MustParse(tc.b), tc.liveB)
			if (fa.FP == fb.FP) != tc.same {
				t.Errorf("fingerprints equal=%v, want %v\ncanon a:\n%s\ncanon b:\n%s",
					fa.FP == fb.FP, tc.same, fa.Prog, fb.Prog)
			}
			if tc.same && fa.Prog.String() != fb.Prog.String() {
				t.Errorf("same fingerprint but different canonical programs:\n%s\nvs\n%s",
					fa.Prog, fb.Prog)
			}
		})
	}
}

// TestMemOperandNormalisation pins the details of the scale-1 addressing
// normalisation the α-equivalence table can't see directly: RSP never
// leaves the base slot, and ToCanon applies the same orientation so cached
// canonical rewrites compare equal regardless of how a mutation oriented
// the operand.
func TestMemOperandNormalisation(t *testing.T) {
	// RSP pins: index RAX sorts below base RSP, but swapping would put RSP
	// in the (unencodable) index slot, so the operand must stay put.
	f := Canonicalize(x64.MustParse("movq (rsp,rdi,1), rax"), live64(x64.RAX))
	o := f.Prog.Insts[0].Opd[0]
	if o.Base != x64.RSP || o.Index == x64.NoReg {
		t.Errorf("RSP-based operand reoriented: base=%v index=%v", o.Base, o.Index)
	}

	// ToCanon must normalise carried rewrites the same way Canonicalize
	// normalises the target, or equal rewrites would miss the cache.
	target := x64.MustParse("movq rdi, rcx\nmovq rsi, rdx\nmovq (rdi,rsi,1), rax")
	form := Canonicalize(target, live64(x64.RAX))
	q := x64.MustParse("movq rdi, rcx\nmovq rsi, rdx\nmovq (rsi,rdi,1), rax")
	qc, ok := form.ToCanon(q)
	if !ok {
		t.Fatal("ToCanon rejected a rename-safe rewrite")
	}
	if qc.String() != form.Prog.String() {
		t.Errorf("ToCanon left a swapped orientation:\n%s\nvs canonical\n%s", qc, form.Prog)
	}
}

// TestConstantAbstraction checks that kernels differing only in literal
// constants share a fingerprint class with distinct constant vectors, and
// that SubstituteConsts round-trips one into the other.
func TestConstantAbstraction(t *testing.T) {
	a := x64.MustParse("movq rdi, rax\naddq 42, rax\nxorq 42, rax\nmovq 7(rsp), rcx")
	b := x64.MustParse("movq rdi, rax\naddq 99, rax\nxorq 99, rax\nmovq 13(rsp), rcx")
	lo := live64(x64.RAX)
	fa := Canonicalize(a, lo)
	fb := Canonicalize(b, lo)
	if fa.FP != fb.FP {
		t.Fatalf("constant abstraction failed: distinct fingerprints")
	}
	// Value numbering: 42 appears twice but once in the vector.
	if len(fa.Consts) != 2 || fa.Consts[0] != 42 || fa.Consts[1] != 7 {
		t.Fatalf("want consts [42 7], got %v", fa.Consts)
	}
	if len(fb.Consts) != 2 || fb.Consts[0] != 99 || fb.Consts[1] != 13 {
		t.Fatalf("want consts [99 13], got %v", fb.Consts)
	}
	// Round-trip: re-literalising a's canonical program with b's constants
	// yields b's canonical program.
	sub := SubstituteConsts(fa.Prog, fa.Consts, fb.Consts)
	if sub.String() != fb.Prog.String() {
		t.Fatalf("substitution round-trip:\n%s\nwant\n%s", sub, fb.Prog)
	}
	// Distinct constant *structure* (shared vs unshared) must not collide.
	c := x64.MustParse("movq rdi, rax\naddq 42, rax\nxorq 41, rax\nmovq 7(rsp), rcx")
	if fc := Canonicalize(c, lo); fc.FP == fa.FP {
		t.Fatalf("42/42 and 42/41 kernels must not share a fingerprint")
	}
}

// TestPaddingInvariance: UNUSED slots are a search artefact; any padding of
// the same program canonicalises identically.
func TestPaddingInvariance(t *testing.T) {
	p := x64.MustParse("movq rdi, rax\naddq rsi, rax")
	lo := live64(x64.RAX)
	base := Canonicalize(p, lo)
	for _, n := range []int{3, 8, 50} {
		padded := Canonicalize(p.PadTo(n), lo)
		if padded.FP != base.FP {
			t.Fatalf("PadTo(%d) changed the fingerprint", n)
		}
		if padded.Prog.String() != base.Prog.String() {
			t.Fatalf("PadTo(%d) changed the canonical program", n)
		}
	}
}

// TestPinnedRegisters checks the semantics-preserving pins: implicit
// operands and CL shift counts stay put under canonicalisation.
func TestPinnedRegisters(t *testing.T) {
	p := x64.MustParse("movq rdi, rax\nmulq rsi")
	pins := PinnedGPRs(p)
	for _, r := range []x64.Reg{x64.RAX, x64.RDX, x64.RSP} {
		if !pins.Has(r) {
			t.Errorf("mulq program must pin %v", x64.GPRName(r, 8))
		}
	}
	f := Canonicalize(p, live64(x64.RAX))
	// rax and rdx must map to themselves in the canonical program.
	if got := f.Prog.Insts[0].Opd[1].Reg; got != x64.RAX {
		t.Errorf("pinned rax renamed to %v", x64.GPRName(got, 8))
	}

	s := x64.MustParse("movq rdi, rax\nshlq cl, rax")
	if !PinnedGPRs(s).Has(x64.RCX) {
		t.Error("CL shift count must pin rcx")
	}
	fs := Canonicalize(s, live64(x64.RAX))
	if got := fs.Prog.Insts[1].Opd[0].Reg; got != x64.RCX {
		t.Errorf("cl count renamed to %v", x64.GPRName(got, 1))
	}
	if err := fs.Prog.Validate(); err != nil {
		t.Errorf("canonical shift program invalid: %v", err)
	}
}

// TestToFromCanonRoundTrip carries a rewrite into canonical space and back,
// and checks RenameOK refuses a rewrite whose pins the form does not fix.
func TestToFromCanonRoundTrip(t *testing.T) {
	target := x64.MustParse("movq rsi, rbx\naddq rdi, rbx")
	f := Canonicalize(target, live64(x64.RBX))
	rewrite := x64.MustParse("leaq (rsi,rdi,1), rbx")
	can, ok := f.ToCanon(rewrite)
	if !ok {
		t.Fatal("plain rewrite must survive ToCanon")
	}
	back, ok := f.FromCanon(can)
	if !ok {
		t.Fatal("FromCanon must invert ToCanon")
	}
	if back.String() != rewrite.Packed().String() {
		t.Fatalf("round trip:\n%s\nwant\n%s", back, rewrite)
	}

	// A rewrite introducing an implicit-operand instruction the target never
	// pinned cannot be carried across register spaces when the bijection
	// moves those registers.
	mul := x64.MustParse("movq rsi, rax\nmulq rdi\nmovq rax, rbx")
	if !RenameOK(mul, &f.toCanon) {
		if _, ok := f.ToCanon(mul); ok {
			t.Fatal("ToCanon accepted a pin-violating rewrite")
		}
	}
}

// TestCanonicalProgramValid: canonical programs of valid inputs stay valid
// (renaming never produces an RSP index or a non-CL shift count).
func TestCanonicalProgramValid(t *testing.T) {
	srcs := []string{
		"movq rdi, rax\naddq rsi, rax",
		"movq (rdi,rsi,4), rax",
		"shlq cl, rdi\nmovq rdi, rax",
		"cmpq rsi, rdi\njle .L0\nmovq rsi, rdi\n.L0:\nmovq rdi, rax",
	}
	for _, src := range srcs {
		f := Canonicalize(x64.MustParse(src), live64(x64.RAX))
		if err := f.Prog.Validate(); err != nil {
			t.Errorf("canonical form of %q invalid: %v\n%s", src, err, f.Prog)
		}
	}
}

// randomProgram builds a small random straight-line program (plus an
// optional forward jump) over a register subset, with immediates, memory
// operands and implicit-operand instructions all represented.
func randomProgram(rng *rand.Rand) *x64.Program {
	regs := []x64.Reg{x64.RAX, x64.RCX, x64.RDX, x64.RBX, x64.RSI, x64.RDI, x64.R8, x64.R13}
	reg := func() x64.Operand { return x64.R64(regs[rng.Intn(len(regs))]) }
	n := 1 + rng.Intn(6)
	p := &x64.Program{}
	for i := 0; i < n; i++ {
		switch rng.Intn(7) {
		case 0:
			p.Insts = append(p.Insts, x64.MakeInst(x64.ADD, reg(), reg()))
		case 1:
			p.Insts = append(p.Insts, x64.MakeInst(x64.MOV, reg(), reg()))
		case 2:
			p.Insts = append(p.Insts, x64.MakeInst(x64.XOR,
				x64.Imm(int64(rng.Intn(3)*17), 8), reg()))
		case 3:
			p.Insts = append(p.Insts, x64.MakeInst(x64.MOV,
				x64.Mem(x64.RSP, -8*int32(1+rng.Intn(3)), 8), reg()))
		case 4:
			p.Insts = append(p.Insts, x64.MakeInst(x64.MUL, reg()))
		case 5:
			p.Insts = append(p.Insts, x64.MakeInst(x64.SHL,
				x64.R8L(x64.RCX), reg()))
		case 6:
			p.Insts = append(p.Insts, x64.MakeInst(x64.SUB, reg(), reg()))
		}
	}
	if rng.Intn(3) == 0 { // forward jump over the tail
		lbl := int16(rng.Intn(4)) // arbitrary id; canon renumbers
		jmp := x64.MakeCCInst(x64.Jcc, x64.CondLE, x64.LabelRef(lbl))
		p.Insts = append(p.Insts[:0:0], append([]x64.Inst{jmp}, p.Insts...)...)
		p.Insts = append(p.Insts, x64.MakeInst(x64.LABEL, x64.LabelRef(lbl)))
	}
	return p
}

// randomRename builds a random bijection fixing p's pinned registers, and
// the corresponding live-out mapping.
func randomRename(rng *rand.Rand, p *x64.Program) [x64.NumGPR]x64.Reg {
	var perm [x64.NumGPR]x64.Reg
	pinned := PinnedGPRs(p)
	var free []x64.Reg
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		if pinned.Has(r) {
			perm[r] = r
		} else {
			free = append(free, r)
		}
	}
	shuffled := append([]x64.Reg(nil), free...)
	rng.Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	for i, r := range free {
		perm[r] = shuffled[i]
	}
	return perm
}

var xmmIdent = func() (id [x64.NumXMM]x64.Reg) {
	for r := x64.Reg(0); r < x64.NumXMM; r++ {
		id[r] = r
	}
	return
}()

// FuzzCanonFingerprint asserts canon(p) == canon(rename(p)) for random
// programs and random semantics-preserving renamings.
func FuzzCanonFingerprint(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		p := randomProgram(rng)
		if p.Validate() != nil {
			t.Skip() // randomProgram can emit backward labels; not canon's concern
		}
		perm := randomRename(rng, p)
		lo := live64(x64.RAX)
		renamedLive := verify.LiveOut{}
		for _, lr := range lo.GPRs {
			lr.Reg = perm[lr.Reg]
			renamedLive.GPRs = append(renamedLive.GPRs, lr)
		}
		q := renameProgram(p.Packed(), &perm, &xmmIdent)

		fp := Canonicalize(p, lo)
		fq := Canonicalize(q, renamedLive)
		if fp.FP != fq.FP {
			t.Fatalf("canon not renaming-invariant (seed %d):\n%s\nlive %v\nvs renamed\n%s\nlive %v\ncanon:\n%s\nvs\n%s",
				seed, p, lo.GPRs, q, renamedLive.GPRs, fp.Prog, fq.Prog)
		}
		if fp.Prog.String() != fq.Prog.String() {
			t.Fatalf("canonical programs differ under renaming (seed %d)", seed)
		}
		if err := fp.Prog.Validate(); err != nil {
			t.Fatalf("invalid canonical program (seed %d): %v", seed, err)
		}
	})
}
