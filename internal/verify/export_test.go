package verify

import (
	"repro/internal/bv"
	"repro/internal/x64"
)

// Translate runs p from the initial symbolic state and returns the final
// 64-bit register terms and the number of initial-memory reads (mem0
// applications) the translation created.
func Translate(p *x64.Program) (regs [x64.NumGPR]*bv.Term, mem0 int) {
	b := bv.NewBuilder()
	s := newSymState(b, DefaultConfig)
	s.Exec(p)
	return s.regs, len(b.Apps["mem0"])
}
