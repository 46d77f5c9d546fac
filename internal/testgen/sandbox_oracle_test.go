package testgen_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/kernels"
	"repro/internal/testgen"
	"repro/internal/x64"
)

// oracleFromInput is the byte-at-a-time FromInput that the bitset trace
// replaced: the sandbox and the live memory outputs come from per-byte
// lookups in address sets, walked segment by segment and byte by byte.
// The address sets are not taken from the emulator's trace, which is what
// is under test, but probed from untraced runs:
//
//   - a byte is dereferenced iff clearing its Valid bit makes the target
//     fault, since execution is identical up to the first access to it;
//   - a byte is written iff it ends defined when the run starts with every
//     memory byte undefined, since only stores define memory and
//     definedness steers neither control flow nor values.
func oracleFromInput(target *x64.Program, spec testgen.Spec, in *emu.Snapshot) (testgen.Testcase, error) {
	m := emu.New()
	m.LoadSnapshot(in)
	out := m.Run(target)
	if out.SigSegv+out.SigFpe > 0 || out.Exhaust {
		return testgen.Testcase{}, fmt.Errorf("testgen: target faulted on generated input: %+v", out)
	}

	touched := map[uint64]struct{}{}
	written := map[uint64]struct{}{}
	pm := emu.New()
	probe := in.Clone()
	for si := range probe.Mem {
		im := &probe.Mem[si]
		for i := range im.Data {
			w, bit := i/64, uint64(1)<<(i%64)
			if im.Valid[w]&bit == 0 {
				continue // touching it would have faulted the run above
			}
			im.Valid[w] &^= bit
			pm.LoadSnapshot(probe)
			if pm.Run(target).SigSegv > 0 {
				touched[im.Base+uint64(i)] = struct{}{}
			}
			im.Valid[w] |= bit
		}
	}
	undef := in.Clone()
	for si := range undef.Mem {
		clear(undef.Mem[si].Def)
	}
	pm.LoadSnapshot(undef)
	pm.Run(target)
	for _, im := range undef.Mem {
		for i := range im.Data {
			if _, def, _ := pm.MemByte(im.Base + uint64(i)); def {
				written[im.Base+uint64(i)] = struct{}{}
			}
		}
	}

	tc := testgen.Testcase{In: in.Clone()}
	derefed := func(addr uint64) bool {
		if _, ok := touched[addr]; ok {
			return true
		}
		_, ok := written[addr]
		return ok
	}
	for si := range tc.In.Mem {
		im := &tc.In.Mem[si]
		valid := emu.NewBits(len(im.Data))
		for i := range im.Data {
			if derefed(im.Base + uint64(i)) {
				valid.Set(i)
			}
		}
		im.Valid = valid
	}
	for _, lr := range spec.LiveOut.GPRs {
		tc.WantGPR = append(tc.WantGPR, m.RegValue(lr.Reg, lr.Width))
	}
	for _, xr := range spec.LiveOut.Xmms {
		tc.WantXmm = append(tc.WantXmm, m.Xmm[xr])
	}
	tc.WantFlags = m.Flags & spec.LiveOut.Flags
	for si := range tc.In.Mem {
		live := false
		for _, s := range spec.LiveOut.LiveSegs {
			live = live || s == si
		}
		if !live {
			continue
		}
		im := &tc.In.Mem[si]
		for i := range im.Data {
			addr := im.Base + uint64(i)
			if _, ok := written[addr]; !ok {
				continue
			}
			b, _, ok := m.MemByte(addr)
			if !ok {
				return testgen.Testcase{}, fmt.Errorf("testgen: written byte %#x vanished", addr)
			}
			tc.WantMem = append(tc.WantMem, testgen.MemCheck{Addr: addr, Want: b})
		}
	}
	return tc, nil
}

// checkAgainstOracle runs FromInput (on a reused machine, as Generate
// does) and the oracle on one input and requires the same testcase —
// Valid bits, WantMem order included — or the same error, and an input
// FromInput left as it was.
func checkAgainstOracle(t *testing.T, what string, m *emu.Machine, target *x64.Program, spec testgen.Spec, in *emu.Snapshot) (faulted bool) {
	t.Helper()
	before := in.Clone()
	got, gotErr := testgen.FromInput(m, target, spec, in)
	if !reflect.DeepEqual(in, before) {
		t.Fatalf("%s: FromInput modified its input", what)
	}
	want, wantErr := oracleFromInput(target, spec, in)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, oracle %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return true
	}
	if !reflect.DeepEqual(got, want) {
		for si := range got.In.Mem {
			if g, w := got.In.Mem[si].Valid, want.In.Mem[si].Valid; !reflect.DeepEqual(g, w) {
				t.Errorf("%s: segment %d Valid\n got %x\nwant %x", what, si, g, w)
			}
		}
		t.Fatalf("%s: testcase differs from the oracle\n got WantMem %v\nwant WantMem %v", what, got.WantMem, want.WantMem)
	}
	return false
}

// thinValid clears a random sixteenth of every segment's sandbox, so
// some targets fault and the error paths are compared too.
func thinValid(in *emu.Snapshot, rng *rand.Rand) {
	for si := range in.Mem {
		im := &in.Mem[si]
		for i := range im.Data {
			if rng.Intn(16) == 0 {
				im.Valid[i/64] &^= 1 << (i % 64)
			}
		}
	}
}

func TestFromInputMatchesByteOracleOnKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := emu.New()
	faults := 0
	for _, b := range kernels.All() {
		for _, target := range []*x64.Program{b.Target, b.GccO3} {
			for j := 0; j < 3; j++ {
				in := b.Spec.BuildInput(rng)
				testgen.FillUndefined(in, rng)
				if j == 2 {
					thinValid(in, rng)
				}
				if checkAgainstOracle(t, fmt.Sprintf("%s input %d", b.Name, j), m, target, b.Spec, in) {
					faults++
				}
			}
		}
	}
	if faults == 0 {
		t.Fatal("no kernel input faulted: the error path went unchecked")
	}
}

// TestGenerateMatchesByteOracle covers Generate's own path, which keeps
// the inputs it builds instead of copying them: replaying its random
// stream rebuilds the same inputs for the oracle.
func TestGenerateMatchesByteOracle(t *testing.T) {
	for _, b := range kernels.All() {
		const n, seed = 4, 9
		got, err := testgen.Generate(b.Target, b.Spec, n, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			in := b.Spec.BuildInput(rng)
			testgen.FillUndefined(in, rng)
			want, err := oracleFromInput(b.Target, b.Spec, in)
			if err != nil {
				t.Fatalf("%s input %d: oracle: %v", b.Name, i, err)
			}
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("%s input %d: Generate's testcase differs from the oracle", b.Name, i)
			}
		}
	}
}

func TestFromInputMatchesByteOracleOnFuzzCases(t *testing.T) {
	spec := testgen.Spec{LiveOut: testgen.LiveSet{
		GPRs:     []testgen.LiveReg{{Reg: x64.RAX, Width: 8}, {Reg: x64.RDX, Width: 4}},
		Xmms:     []x64.Reg{0, 1},
		Flags:    x64.CF | x64.ZF | x64.SF | x64.OF | x64.PF,
		LiveSegs: []int{0},
	}}
	var inputs [][]byte
	for _, s := range testgen.SeedCorpus() {
		inputs = append(inputs, s.Data)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 400; i++ {
		data := make([]byte, 40+rng.Intn(120))
		rng.Read(data)
		inputs = append(inputs, data)
	}
	m := emu.New()
	faults, stores := 0, 0
	for i, data := range inputs {
		fc := testgen.DecodeFuzzCase(data)
		if !checkAgainstOracle(t, fmt.Sprintf("fuzz case %d", i), m, fc.Prog, spec, fc.Snap) {
			if tc, _ := testgen.FromInput(m, fc.Prog, spec, fc.Snap); len(tc.WantMem) > 0 {
				stores++
			}
		} else {
			faults++
		}
	}
	if faults == 0 || stores == 0 {
		t.Fatalf("fuzz cases exercised %d faults and %d storing targets, want both", faults, stores)
	}
}
