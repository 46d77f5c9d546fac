package x64

import (
	"testing"
	"unsafe"
)

// TestInstSize pins the instruction layout. Searches copy and retain
// programs by the thousand, so padding added to Operand by a new or
// reordered field grows every one of them.
func TestInstSize(t *testing.T) {
	if n := unsafe.Sizeof(Operand{}); n > 16 {
		t.Errorf("Operand is %d bytes, want at most 16", n)
	}
	if n := unsafe.Sizeof(Inst{}); n > 56 {
		t.Errorf("Inst is %d bytes, want at most 56", n)
	}
}
