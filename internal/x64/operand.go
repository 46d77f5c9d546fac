package x64

import (
	"fmt"
	"strings"
)

// OperandKind discriminates the payload of an Operand.
type OperandKind uint8

// Operand kinds.
const (
	KindNone  OperandKind = iota
	KindReg               // general purpose register view (Width 1,2,4,8)
	KindXmm               // 128-bit XMM register
	KindImm               // immediate constant
	KindMem               // memory reference disp(base,index,scale)
	KindLabel             // branch target label
)

func (k OperandKind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindReg:
		return "reg"
	case KindXmm:
		return "xmm"
	case KindImm:
		return "imm"
	case KindMem:
		return "mem"
	case KindLabel:
		return "label"
	}
	return fmt.Sprintf("OperandKind(%d)", uint8(k))
}

// Operand is a single instruction operand. It is a plain value type (no
// pointers, no interfaces) so that instructions can be copied and mutated on
// the MCMC hot path without allocation.
//
// Field usage by kind:
//
//	KindReg:   Reg, Width (1,2,4,8)
//	KindXmm:   Reg, Width=16
//	KindImm:   Imm, Width (operand-size context, usually of its consumer)
//	KindMem:   Base, Index, Scale, Disp, Width (access size)
//	KindLabel: Label
type Operand struct {
	Kind  OperandKind
	Width uint8 // access/view width in bytes: 1, 2, 4, 8 or 16
	Reg   Reg   // register id for KindReg / KindXmm
	Base  Reg   // memory base register, NoReg if absent
	Index Reg   // memory index register, NoReg if absent
	Scale uint8 // memory index scale: 1, 2, 4 or 8
	Disp  int32 // memory displacement
	Label int32 // label id for KindLabel; beside Disp so Operand packs into 24 bytes
	Imm   int64 // immediate payload
}

// R returns a GPR operand of the given width in bytes.
func R(r Reg, width uint8) Operand { return Operand{Kind: KindReg, Reg: r, Width: width} }

// R64 returns a 64-bit register operand.
func R64(r Reg) Operand { return R(r, 8) }

// R32 returns a 32-bit register operand.
func R32(r Reg) Operand { return R(r, 4) }

// R16 returns a 16-bit register operand.
func R16(r Reg) Operand { return R(r, 2) }

// R8L returns an 8-bit (low byte) register operand.
func R8L(r Reg) Operand { return R(r, 1) }

// X returns an XMM register operand.
func X(r Reg) Operand { return Operand{Kind: KindXmm, Reg: r, Width: 16} }

// Imm returns an immediate operand with the given operand-size context.
func Imm(v int64, width uint8) Operand { return Operand{Kind: KindImm, Imm: v, Width: width} }

// Mem returns a memory operand disp(base) with the given access width.
func Mem(base Reg, disp int32, width uint8) Operand {
	return Operand{Kind: KindMem, Base: base, Index: NoReg, Scale: 1, Disp: disp, Width: width}
}

// MemSIB returns a memory operand disp(base,index,scale).
func MemSIB(base, index Reg, scale uint8, disp int32, width uint8) Operand {
	return Operand{Kind: KindMem, Base: base, Index: index, Scale: scale, Disp: disp, Width: width}
}

// LabelRef returns a label-reference operand for branches.
func LabelRef(id int32) Operand { return Operand{Kind: KindLabel, Label: id} }

// IsReg reports whether o is a GPR operand.
func (o Operand) IsReg() bool { return o.Kind == KindReg }

// IsMem reports whether o is a memory operand.
func (o Operand) IsMem() bool { return o.Kind == KindMem }

// IsImm reports whether o is an immediate operand.
func (o Operand) IsImm() bool { return o.Kind == KindImm }

// IsXmm reports whether o is an XMM register operand.
func (o Operand) IsXmm() bool { return o.Kind == KindXmm }

// String renders the operand in the paper's AT&T-flavoured syntax.
func (o Operand) String() string {
	switch o.Kind {
	case KindNone:
		return "<none>"
	case KindReg:
		return GPRName(o.Reg, o.Width)
	case KindXmm:
		return XMMName(o.Reg)
	case KindImm:
		if o.Imm < 0 || o.Imm < 4096 {
			return fmt.Sprintf("%d", o.Imm)
		}
		return fmt.Sprintf("0x%x", uint64(o.Imm))
	case KindMem:
		var b strings.Builder
		if o.Disp != 0 {
			fmt.Fprintf(&b, "%d", o.Disp)
		}
		b.WriteByte('(')
		if o.Base != NoReg {
			b.WriteString(GPRName(o.Base, 8))
		}
		if o.Index != NoReg {
			b.WriteByte(',')
			b.WriteString(GPRName(o.Index, 8))
			fmt.Fprintf(&b, ",%d", o.Scale)
		}
		b.WriteByte(')')
		return b.String()
	case KindLabel:
		return fmt.Sprintf(".L%d", o.Label)
	}
	return "<bad operand>"
}

// Cond is a condition code for Jcc, SETcc and CMOVcc instructions.
type Cond uint8

// Condition codes. The predicate of each in terms of status flags follows
// the Intel SDM.
const (
	CondNone Cond = iota
	CondE         // equal: ZF
	CondNE        // not equal: !ZF
	CondA         // unsigned above: !CF && !ZF
	CondAE        // unsigned above or equal: !CF
	CondB         // unsigned below: CF
	CondBE        // unsigned below or equal: CF || ZF
	CondG         // signed greater: !ZF && SF==OF
	CondGE        // signed greater or equal: SF==OF
	CondL         // signed less: SF!=OF
	CondLE        // signed less or equal: ZF || SF!=OF
	CondS         // sign: SF
	CondNS        // not sign: !SF
	CondO         // overflow: OF
	CondNO        // not overflow: !OF
	CondP         // parity: PF
	CondNP        // not parity: !PF
	NumConds
)

var condNames = [NumConds]string{
	CondNone: "", CondE: "e", CondNE: "ne", CondA: "a", CondAE: "ae",
	CondB: "b", CondBE: "be", CondG: "g", CondGE: "ge", CondL: "l",
	CondLE: "le", CondS: "s", CondNS: "ns", CondO: "o", CondNO: "no",
	CondP: "p", CondNP: "np",
}

func (c Cond) String() string {
	if c < NumConds {
		return condNames[c]
	}
	return fmt.Sprintf("cc%d", uint8(c))
}

// condAliases maps accepted spellings (including synonyms) to codes.
var condAliases = map[string]Cond{
	"e": CondE, "z": CondE,
	"ne": CondNE, "nz": CondNE,
	"a": CondA, "nbe": CondA,
	"ae": CondAE, "nb": CondAE, "nc": CondAE,
	"b": CondB, "c": CondB, "nae": CondB,
	"be": CondBE, "na": CondBE,
	"g": CondG, "nle": CondG,
	"ge": CondGE, "nl": CondGE,
	"l": CondL, "nge": CondL,
	"le": CondLE, "ng": CondLE,
	"s": CondS, "ns": CondNS,
	"o": CondO, "no": CondNO,
	"p": CondP, "pe": CondP, "np": CondNP, "po": CondNP,
}

// LookupCond resolves a condition-code suffix spelling such as "ae" or "nz".
func LookupCond(s string) (Cond, bool) {
	c, ok := condAliases[s]
	return c, ok
}

// FlagsReadByCond returns the set of status flags a condition inspects.
func FlagsReadByCond(c Cond) FlagSet {
	switch c {
	case CondE, CondNE:
		return ZF
	case CondA, CondBE:
		return CF | ZF
	case CondAE, CondB:
		return CF
	case CondG, CondLE:
		return ZF | SF | OF
	case CondGE, CondL:
		return SF | OF
	case CondS, CondNS:
		return SF
	case CondO, CondNO:
		return OF
	case CondP, CondNP:
		return PF
	}
	return 0
}

// EvalCond evaluates condition c against a concrete flag valuation.
func EvalCond(c Cond, flags FlagSet) bool {
	cf := flags&CF != 0
	pf := flags&PF != 0
	zf := flags&ZF != 0
	sf := flags&SF != 0
	of := flags&OF != 0
	switch c {
	case CondE:
		return zf
	case CondNE:
		return !zf
	case CondA:
		return !cf && !zf
	case CondAE:
		return !cf
	case CondB:
		return cf
	case CondBE:
		return cf || zf
	case CondG:
		return !zf && sf == of
	case CondGE:
		return sf == of
	case CondL:
		return sf != of
	case CondLE:
		return zf || sf != of
	case CondS:
		return sf
	case CondNS:
		return !sf
	case CondO:
		return of
	case CondNO:
		return !of
	case CondP:
		return pf
	case CondNP:
		return !pf
	}
	return false
}
