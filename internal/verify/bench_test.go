package verify_test

import (
	"context"
	"testing"

	"repro/internal/verify"
)

// BenchmarkEquivalent proves -O0 suite targets equivalent to their gcc
// -O3 forms under DefaultConfig, and reports the encoded clause count and
// the solver's conflicts per query.
func BenchmarkEquivalent(b *testing.B) {
	for _, name := range []string{"p19", "p21", "p22", "p24"} {
		target, gcc, live := suiteQuery(b, name)
		b.Run(name, func(b *testing.B) {
			var res verify.Result
			for i := 0; i < b.N; i++ {
				res = verify.Equivalent(context.Background(), target, gcc, live, verify.DefaultConfig)
				if res.Verdict != verify.Equal {
					b.Fatalf("%v (%s), want equal", res.Verdict, res.Reason)
				}
			}
			b.ReportMetric(float64(res.Clauses), "clauses/op")
			b.ReportMetric(float64(res.Conflicts), "conflicts/op")
		})
	}
}
