package tv

import (
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/isel"
	"repro/internal/llvmir"
	"repro/internal/proof"
	"repro/internal/telemetry"
	"repro/internal/vcgen"
)

// multiPointFn is a GCC-like corpus function with a loop nest: 18 sync
// points, 13 of them checked, whose queries reach the SAT layer at
// several points.
const multiPointFn = "fn0025"

// corpusModule generates the GCC-like corpus up to multiPointFn and
// parses that function's module.
func corpusModule(tb testing.TB) *llvmir.Module {
	tb.Helper()
	for _, f := range corpus.Generate(corpus.GCCLike(26)) {
		if f.Name == multiPointFn {
			mod, err := llvmir.Parse(f.Src)
			if err != nil {
				tb.Fatal(err)
			}
			return mod
		}
	}
	tb.Fatalf("corpus has no %s", multiPointFn)
	return nil
}

// TestSATInstancePerSyncPoint validates a multi-point corpus function
// with certificates and tracing on. Each sync point whose queries reach
// the SAT layer must get its own incremental instance, the verdict must
// equal the cold-solver ablation's, and every certificate must verify.
func TestSATInstancePerSyncPoint(t *testing.T) {
	mod := corpusModule(t)
	dir := t.TempDir()
	rec, err := proof.NewRecorder(dir, multiPointFn)
	if err != nil {
		t.Fatal(err)
	}
	tracer := telemetry.NewTracer()
	out := Validate(mod, multiPointFn, isel.Options{}, vcgen.Options{},
		core.Options{Proof: rec, Trace: tracer}, Budget{})
	if _, err := rec.Close(out.Class == ClassSucceeded); err != nil {
		t.Fatal(err)
	}

	cold := Validate(mod, multiPointFn, isel.Options{}, vcgen.Options{},
		core.Options{DisableIncrementalSMT: true}, Budget{})
	if out.Class != cold.Class {
		t.Errorf("class %v, cold-solver class %v (err %v / %v)", out.Class, cold.Class, out.Err, cold.Err)
	}

	report, err := proof.CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range report.Rejections {
		t.Errorf("rejection: %s", r)
	}

	// A query span carries sat_vars when it was solved on a SAT
	// instance; the core.point span above it names its sync point.
	records := tracer.Records()
	byID := make(map[telemetry.SpanID]telemetry.Record, len(records))
	for _, r := range records {
		byID[r.ID] = r
	}
	points := make(map[any]bool)
	for _, r := range records {
		if r.Name != "smt.query" || r.Attrs["sat_vars"] == nil {
			continue
		}
		p := r
		for p.Name != "core.point" {
			var ok bool
			if p, ok = byID[p.Parent]; !ok {
				t.Fatalf("query span %d has no core.point ancestor", r.ID)
			}
		}
		points[p.Attrs["point"]] = true
	}
	if got := out.SMTStats.Instances; got != int64(len(points)) || got < 2 {
		t.Errorf("%d SAT instances for %d points whose queries reached the SAT layer; want equal and at least 2",
			got, len(points))
	}
}
