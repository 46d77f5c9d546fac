package main

import (
	"fmt"
	"math/rand"

	"repro/internal/canon"
	"repro/internal/emu"
	"repro/internal/kernels"
	"repro/internal/testgen"
	"repro/internal/verify"
	"repro/internal/x64"
	"repro/stoke"
)

// checkInputs is how many seeded random inputs each proven answer runs on.
const checkInputs = 64

// hdArgRegs are the System V argument registers the Hacker's Delight
// kernels take their uint32 parameters in.
var hdArgRegs = []x64.Reg{x64.RDI, x64.RSI, x64.RDX, x64.RCX}

// perm is a GPR renaming; perm[r] is the new name of r.
type perm [x64.NumGPR]x64.Reg

func identity() perm {
	var p perm
	for r := range p {
		p[r] = x64.Reg(r)
	}
	return p
}

// randomPerm permutes the registers target may rename: every GPR except
// RSP and the target's implicit operands.
func randomPerm(target *x64.Program, rng *rand.Rand) perm {
	pinned := canon.PinnedGPRs(target)
	var free []x64.Reg
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		if !pinned.Has(r) {
			free = append(free, r)
		}
	}
	p := identity()
	for i, j := range rng.Perm(len(free)) {
		p[free[i]] = free[j]
	}
	return p
}

// renameProgram applies p to every register operand and address of q.
func renameProgram(q *x64.Program, p perm) *x64.Program {
	out := q.Clone()
	for i := range out.Insts {
		in := &out.Insts[i]
		for j := 0; j < int(in.N); j++ {
			o := &in.Opd[j]
			switch o.Kind {
			case x64.KindReg:
				o.Reg = p[o.Reg]
			case x64.KindMem:
				if o.Base < x64.NumGPR {
					o.Base = p[o.Base]
				}
				if o.Index < x64.NumGPR {
					o.Index = p[o.Index]
				}
			}
		}
	}
	return out
}

// renameKernel is k with every register renamed by p: the program, the
// input registers its testcases fill, its live outputs and live memory.
func renameKernel(k stoke.Kernel, p perm) stoke.Kernel {
	out := k
	out.Target = renameProgram(k.Target, p)
	build := k.Spec.BuildInput
	out.Spec.BuildInput = func(rng *rand.Rand) *emu.Snapshot {
		return renameSnapshot(build(rng), p)
	}
	out.Spec.LiveOut.GPRs = nil
	for _, lr := range k.Spec.LiveOut.GPRs {
		out.Spec.LiveOut.GPRs = append(out.Spec.LiveOut.GPRs, testgen.LiveReg{Reg: p[lr.Reg], Width: lr.Width})
	}
	out.LiveMem = nil
	for _, mr := range k.LiveMem {
		mr.Base = p[mr.Base]
		out.LiveMem = append(out.LiveMem, mr)
	}
	out.Pointers = 0
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		if k.Pointers.Has(r) {
			out.Pointers = out.Pointers.With(p[r])
		}
	}
	return out
}

func renameSnapshot(s *emu.Snapshot, p perm) *emu.Snapshot {
	out := s.Clone()
	out.RegDef = 0
	for r := x64.Reg(0); r < x64.NumGPR; r++ {
		out.Regs[p[r]] = s.Regs[r]
		if s.RegDef&(1<<r) != 0 {
			out.RegDef |= 1 << p[r]
		}
	}
	return out
}

// checkHD runs rewrite on the interpreter over seeded random inputs and
// compares eax (renamed by p) with the kernel's Go reference, which shares
// no code with the emulator. spec builds inputs in the renamed registers.
func checkHD(b kernels.Bench, spec testgen.Spec, p perm, rewrite *x64.Program, rng *rand.Rand) error {
	m := emu.New()
	args := make([]uint32, b.Params)
	for i := 0; i < checkInputs; i++ {
		in := spec.BuildInput(rng)
		testgen.FillUndefined(in, rng)
		for j := range args {
			args[j] = uint32(in.Regs[p[hdArgRegs[j]]])
		}
		m.LoadSnapshot(in)
		out := m.Run(rewrite)
		if out.SigSegv+out.SigFpe > 0 || out.Exhaust {
			return fmt.Errorf("%s: rewrite faulted on %v", b.Name, args)
		}
		got, want := uint32(m.RegValue(p[x64.RAX], 4)), b.RefHD(args)
		if got != want {
			return fmt.Errorf("%s: rewrite gives %#x on %v, reference %#x", b.Name, got, args, want)
		}
	}
	return nil
}

// checkVsTarget runs target and rewrite on the interpreter over seeded
// random inputs and compares every live output: registers, XMM registers,
// flags and the bytes of the live memory ranges.
func checkVsTarget(k stoke.Kernel, rewrite *x64.Program, rng *rand.Rand) error {
	m := emu.New()
	for i := 0; i < checkInputs; i++ {
		in := k.Spec.BuildInput(rng)
		testgen.FillUndefined(in, rng)
		m.LoadSnapshot(in)
		if out := m.Run(k.Target); out.SigSegv+out.SigFpe > 0 || out.Exhaust {
			continue // not an input the kernel accepts
		}
		want := liveState(m, k, in)
		m.LoadSnapshot(in)
		if out := m.Run(rewrite); out.SigSegv+out.SigFpe > 0 || out.Exhaust {
			return fmt.Errorf("%s: rewrite faulted on input %d", k.Name, i)
		}
		if got := liveState(m, k, in); got != want {
			return fmt.Errorf("%s: live outputs differ on input %d", k.Name, i)
		}
	}
	return nil
}

// liveState renders the machine's live outputs after a run.
func liveState(m *emu.Machine, k stoke.Kernel, in *emu.Snapshot) string {
	s := ""
	for _, lr := range k.Spec.LiveOut.GPRs {
		s += fmt.Sprintf("%v=%#x ", lr.Reg, m.RegValue(lr.Reg, lr.Width))
	}
	for _, xr := range k.Spec.LiveOut.Xmms {
		s += fmt.Sprintf("xmm%d=%x ", xr, m.Xmm[xr])
	}
	s += fmt.Sprintf("flags=%v ", m.Flags&k.Spec.LiveOut.Flags)
	for _, mr := range k.LiveMem {
		base := in.Regs[mr.Base] + uint64(int64(mr.Disp))
		for a := base; a < base+uint64(mr.Len); a++ {
			b, _, ok := m.MemByte(a)
			s += fmt.Sprintf("%x:%t ", b, ok)
		}
	}
	return s
}

// liveOf is the validator's live-out declaration of k.
func liveOf(k stoke.Kernel) verify.LiveOut {
	return verify.LiveOut{
		GPRs:  k.Spec.LiveOut.GPRs,
		Xmms:  k.Spec.LiveOut.Xmms,
		Flags: k.Spec.LiveOut.Flags,
		Mem:   k.LiveMem,
	}
}
