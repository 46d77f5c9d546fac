package x64

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseMontgomeryRewrite(t *testing.T) {
	// The STOKE rewrite from Figure 1 (right column).
	src := `
.L0
  shlq 32, rcx
  mov edx, edx
  xorq rdx, rcx
  movq rcx, rax
  mulq rsi
  addq r8, rdi
  adcq 0, rdx
  addq rdi, rax
  adcq 0, rdx
  movq rdx, r8
  movq rax, rdi
`
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := p.InstCount(); got != 11 {
		t.Fatalf("InstCount = %d, want 11 (paper: 11-instruction kernel)", got)
	}
	// Round trip.
	q, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, p.String())
	}
	if p.String() != q.String() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", p.String(), q.String())
	}
}

func TestParseGccO3Montgomery(t *testing.T) {
	// Figure 1 (left column), gcc -O3, with the .set constants.
	src := `
.set c0 0xffffffff
.set c1 0x100000000
.L0
  movq rsi, r9
  mov ecx, ecx
  shrq 32, rsi
  andl c0, r9d
  movq rcx, rax
  mov edx, edx
  imulq r9, rax
  imulq rdx, r9
  imulq rsi, rdx
  imulq rsi, rcx
  addq rdx, rax
  jae .L2
  movabsq c1, rdx
  addq rdx, rcx
.L2
  movq rax, rsi
  movq rax, rdx
  shrq 32, rsi
  salq 32, rdx
  addq rsi, rcx
  addq r9, rdx
  adcq 0, rcx
  addq r8, rdx
  adcq 0, rcx
  addq rdi, rdx
  adcq 0, rcx
  movq rcx, r8
  movq rdx, rdi
`
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := p.InstCount(); got != 27 {
		t.Fatalf("InstCount = %d, want 27", got)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestParseConditionFamilies(t *testing.T) {
	cases := []struct {
		src  string
		op   Opcode
		cc   Cond
		want string
	}{
		{"sete dl", SETcc, CondE, "sete dl"},
		{"setb al", SETcc, CondB, "setb al"},
		{"cmovel esi, ecx", CMOVcc, CondE, "cmovel esi, ecx"},
		{"cmovle rax, rbx", CMOVcc, CondLE, "cmovleq rax, rbx"},
		{"cmovneq r8, r9", CMOVcc, CondNE, "cmovneq r8, r9"},
		{"jae .L2\n.L2", Jcc, CondAE, ""},
		{"jnz .L1\n.L1", Jcc, CondNE, ""},
	}
	for _, c := range cases {
		p, err := Parse(c.src)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.src, err)
			continue
		}
		in := p.Insts[0]
		if in.Op != c.op || in.CC != c.cc {
			t.Errorf("Parse(%q) = op %v cc %v, want %v/%v", c.src, in.Op, in.CC, c.op, c.cc)
		}
		if c.want != "" && in.String() != c.want {
			t.Errorf("String(%q) = %q, want %q", c.src, in.String(), c.want)
		}
	}
}

func TestParseSSE(t *testing.T) {
	src := `
  movd edi, xmm0
  shufps 0, xmm0, xmm0
  movups (rsi,rcx,4), xmm1
  pmullw xmm1, xmm0
  movups (rdx,rcx,4), xmm1
  paddw xmm1, xmm0
  movups xmm0, (rsi,rcx,4)
`
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if p.InstCount() != 7 {
		t.Fatalf("InstCount = %d, want 7", p.InstCount())
	}
	if p.Insts[0].Op != MOVD {
		t.Errorf("inst 0 op = %v, want MOVD", p.Insts[0].Op)
	}
	if p.Insts[2].Op != MOVUPS || !p.Insts[2].Opd[0].IsMem() {
		t.Errorf("inst 2 = %v, want movups load", p.Insts[2])
	}
	if p.Insts[6].Op != MOVUPS || !p.Insts[6].Opd[1].IsMem() {
		t.Errorf("inst 6 = %v, want movups store", p.Insts[6])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"bogus rax, rbx",               // unknown mnemonic
		"movq eax, ebx",                // suffix disagrees with width
		"shlq cl, rax, rbx",            // arity
		"shlb bl, al",                  // shift count must be cl
		"jmp .Lmissing",                // undefined label
		".L0\njmp .L0",                 // backward jump
		"movl (rax,rsp,4), ecx",        // rsp cannot index
		"addq 1(,,) , rax",             // malformed memory
		"movq 0x1ffffffffff(rax), rbx", // displacement range
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestParseLabelLimit pins the 16-bit label space: kernel text arrives
// over the network, so the label past MaxLabels must be a parse error, not
// an id that wraps onto an earlier label.
func TestParseLabelLimit(t *testing.T) {
	var b strings.Builder
	for i := 0; i < MaxLabels; i++ {
		fmt.Fprintf(&b, ".L%d\n", i)
	}
	full := b.String()
	p, err := Parse(full)
	if err != nil {
		t.Fatalf("%d labels: %v", MaxLabels, err)
	}
	if got := p.MaxLabel(); got != MaxLabels-1 {
		t.Fatalf("MaxLabel = %d, want %d", got, MaxLabels-1)
	}
	for _, extra := range []string{".Lextra", "jmp .Lextra"} {
		if _, err := Parse(full + extra); err == nil || !strings.Contains(err.Error(), "distinct labels") {
			t.Errorf("label %d via %q: got %v, want a label-limit error", MaxLabels+1, extra, err)
		}
	}
}

func TestParseBackwardJumpRejected(t *testing.T) {
	if _, err := Parse(".L0\naddq rax, rbx\njmp .L0"); err == nil ||
		!strings.Contains(err.Error(), "backwards") {
		t.Fatalf("want backwards-jump error, got %v", err)
	}
}

func TestEffectsOf(t *testing.T) {
	cases := []struct {
		src       string
		wantRead  RegSet
		wantWrite RegSet
		flagsW    FlagSet
		memR      bool
		memW      bool
	}{
		{"addq rax, rbx", RegSet(0).With(RAX).With(RBX), RegSet(0).With(RBX), AllFlags, false, false},
		{"movq rax, rbx", RegSet(0).With(RAX), RegSet(0).With(RBX), 0, false, false},
		{"mulq rsi", RegSet(0).With(RAX).With(RSI), RegSet(0).With(RAX).With(RDX), AllFlags, false, false},
		{"movq (rdi), rax", RegSet(0).With(RDI), RegSet(0).With(RAX), 0, true, false},
		{"movq rax, (rdi)", RegSet(0).With(RAX).With(RDI), 0, 0, false, true},
		{"leaq 4(rsi,rcx,4), r8", RegSet(0).With(RSI).With(RCX), RegSet(0).With(R8), 0, false, false},
		{"movb al, bl", RegSet(0).With(RAX).With(RBX), RegSet(0).With(RBX), 0, false, false},
		{"incl eax", RegSet(0).With(RAX), RegSet(0).With(RAX), PF | ZF | SF | OF, false, false},
	}
	for _, c := range cases {
		p, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		e := EffectsOf(p.Insts[0])
		if e.GPRRead != c.wantRead {
			t.Errorf("%q reads %v, want %v", c.src, e.GPRRead, c.wantRead)
		}
		if e.GPRWrite != c.wantWrite {
			t.Errorf("%q writes %v, want %v", c.src, e.GPRWrite, c.wantWrite)
		}
		if e.FlagsWrit != c.flagsW {
			t.Errorf("%q writes flags %v, want %v", c.src, e.FlagsWrit, c.flagsW)
		}
		if e.MemRead != c.memR || e.MemWrite != c.memW {
			t.Errorf("%q mem r/w = %v/%v, want %v/%v", c.src, e.MemRead, e.MemWrite, c.memR, c.memW)
		}
	}
}

func TestNumSignatures(t *testing.T) {
	n := NumSignatures()
	// The paper describes a vocabulary of a few hundred opcode variants; our
	// subset should land in the same order of magnitude.
	if n < 250 {
		t.Fatalf("NumSignatures = %d, want >= 250", n)
	}
	t.Logf("instruction vocabulary: %d opcode/signature pairs", n)
}

// TestPrintParseRoundTripRandom checks that every random proposable
// instruction survives a print/parse round trip unchanged — the printer and
// parser are exact inverses over the search vocabulary.
func TestPrintParseRoundTripRandom(t *testing.T) {
	rng := newTestRand(99)
	made := 0
	for i := 0; i < 20000 && made < 5000; i++ {
		in, ok := randomInstForTest(rng)
		if !ok {
			continue
		}
		made++
		text := in.String()
		p, err := Parse(text)
		if err != nil {
			t.Fatalf("Parse(%q): %v", text, err)
		}
		got := p.Insts[0]
		if got.String() != text {
			t.Fatalf("round trip: %q -> %q", text, got.String())
		}
	}
	if made < 1000 {
		t.Fatalf("only generated %d instructions", made)
	}
}
