package harness

import (
	"repro/internal/telemetry"
)

// StatsJSON is the machine-readable form of RenderStats: one JSON
// object carrying the run's headline numbers, the Figure 6 class
// breakdown, and the run's telemetry registry — every counter (solver
// totals included, under the names of smt.Stats.Record) and every
// histogram in its exact encoding. cmd/tv -stats-json prints it; the
// tvd daemon embeds the same struct in its batch summaries, so a local
// run and a remote one are field-for-field comparable, and chunked
// remote runs merge exactly.
type StatsJSON struct {
	Functions   int     `json:"functions"`
	Workers     int     `json:"workers"`
	WallSeconds float64 `json:"wall_seconds"`
	CPUSeconds  float64 `json:"cpu_seconds"`
	Speedup     float64 `json:"speedup"`
	// Classes maps Class.String() to its row count (the Figure 6 table).
	Classes map[string]int `json:"classes"`

	// Certified and CertFailed mirror Summary (zero when proof emission
	// was off).
	Certified  int `json:"certified"`
	CertFailed int `json:"cert_failed"`

	// Counters and Hists are the Summary.Metrics snapshot (class.*,
	// smt.*, sat.*, cube.*, phase.*, store.*, tvd.* ...); a consumer that
	// needs a number the named fields don't carry reads it here.
	Counters map[string]int64               `json:"counters,omitempty"`
	Hists    map[string]telemetry.Histogram `json:"hists,omitempty"`
}

// StatsJSON builds the machine-readable summary of the run.
func (s *Summary) StatsJSON() *StatsJSON {
	out := &StatsJSON{
		Functions:   s.Total,
		Workers:     s.Workers,
		WallSeconds: s.WallTime.Seconds(),
		CPUSeconds:  s.CPUTime.Seconds(),
		Speedup:     s.Speedup(),
		Classes:     s.ClassCounts(),
		Certified:   s.Certified,
		CertFailed:  s.CertFailed,
	}
	out.Counters, out.Hists = s.Metrics.Snapshot()
	return out
}
