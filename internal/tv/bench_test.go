package tv

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isel"
	"repro/internal/vcgen"
)

// BenchmarkValidateFunction runs the whole pipeline — ISel, VC
// generation, symbolic stepping and SMT — on one fixed multi-point
// corpus function with the default options.
func BenchmarkValidateFunction(b *testing.B) {
	mod := corpusModule(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := Validate(mod, multiPointFn, isel.Options{}, vcgen.Options{}, core.Options{}, Budget{})
		if out.Class != ClassSucceeded {
			b.Fatalf("%s: %v (%v)", multiPointFn, out.Class, out.Err)
		}
	}
}
