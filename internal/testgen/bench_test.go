package testgen_test

import (
	"math/rand"
	"testing"

	"repro/internal/kernels"
	"repro/internal/testgen"
)

// BenchmarkGenerate times one testcase set for p01 at the paper's τ = 32:
// 32 instrumented target runs on inputs with a 1 KiB stack, the sandbox
// and live outputs derived from each trace. A served cache hit generates
// one such set before it revalidates, so this is its floor.
//
//	go test -run '^$' -bench BenchmarkGenerate ./internal/testgen
func BenchmarkGenerate(b *testing.B) {
	k, err := kernels.ByName("p01")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := testgen.Generate(k.Target, k.Spec, 32, rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}
