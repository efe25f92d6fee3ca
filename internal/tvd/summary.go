package tvd

import (
	"time"

	"repro/internal/harness"
	"repro/internal/smt"
	"repro/internal/telemetry"
	"repro/internal/tv"
)

// Summary reconstructs a harness.Summary from a batch result, so a
// remote run renders through the exact same Figure6/Figure7/RenderStats/
// PhaseReport code as a local one: the registry is rebuilt from the
// wire's counters and exact histograms, and the solver totals are read
// back from it.
func (r *BatchResult) Summary() *harness.Summary {
	sum := &harness.Summary{
		Total:   len(r.Rows),
		Metrics: telemetry.NewMetrics(),
	}
	for _, row := range r.Rows {
		c, _ := tv.ParseClass(row.Class)
		sum.Rows = append(sum.Rows, harness.ResultRow{
			Fn:        row.Fn,
			Class:     c,
			CodeSize:  row.CodeSize,
			Duration:  time.Duration(row.DurationNS),
			Certified: row.Certified,
		})
		// A store hit never ran on the daemon, so no fn.duration was
		// observed for it; its row duration joins here, keeping Figure 7
		// over every row.
		if row.Cached {
			sum.Metrics.Observe("fn.duration", time.Duration(row.DurationNS))
		}
	}
	if s := r.Stats; s != nil {
		sum.Workers = s.Workers
		sum.WallTime = time.Duration(s.WallSeconds * float64(time.Second))
		sum.CPUTime = time.Duration(s.CPUSeconds * float64(time.Second))
		sum.Certified = s.Certified
		sum.CertFailed = s.CertFailed
		sum.Metrics.MergeSnapshot(s.Counters, s.Hists)
	}
	sum.SMTStats = smt.StatsOf(sum.Metrics)
	return sum
}
