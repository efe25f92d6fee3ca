package smt

import (
	"time"

	"repro/internal/telemetry"
)

// Stats is the solver's private tally across queries: plain fields the
// hot path increments without locking, and that span attributes read as
// per-query deltas. Beyond one function's solver the totals travel as
// telemetry counters (Record) and are read back as a typed view
// (StatsOf); statFields names the counter behind each field.
type Stats struct {
	Queries       int64
	FastQueries   int64 // decided by simplification alone, no SAT call
	CacheHits     int64 // decided by the shared VC cache, no SAT call
	CacheMisses   int64 // cache consulted but the query had to be solved
	ModelHits     int64 // decided Sat by a recent query's model, no SAT call
	CacheBytes    int64 // canonical serialization bytes hashed for cache keys
	SATConflicts  int64
	SATDecisions  int64
	CNFClauses    int64
	Instances     int64 // incremental SAT instances built
	SolveDuration time.Duration
	ProofBytes    int64 // certificate bytes written, the run's term table included
	Certificates  int64 // query certificates emitted

	// Inprocessing counters (see internal/sat/preprocess.go). These count
	// the work done by the primary per-query/per-worker instances; racer
	// instances simplify their own snapshots and are not aggregated.
	SubsumedClauses     int64 // clauses deleted as subsumed or root-satisfied
	StrengthenedClauses int64 // clauses shortened by self-subsuming resolution
	VivifiedClauses     int64 // clauses shortened by vivification probes
	EliminatedVars      int64 // variables removed by bounded elimination

	// Portfolio-racing counters.
	Races         int64 // queries that outlived the probe budget and raced
	RaceRacerWins int64 // races decided by a racer rather than the primary
	RaceTokens    int64 // idle worker slots borrowed across all races
	// Loser-side race accounting: CPU spent by racers whose result was
	// discarded (and by the primary's race leg when a racer won). Kept
	// apart from SATConflicts, which counts only work that produced the
	// verdicts, so phase reports can show the true cost of racing.
	RaceWastedConflicts int64
	RaceWastedProps     int64

	// Cube-and-conquer counters (the escalation tier above racing).
	CubeEscalations int64 // queries escalated to cube-and-conquer
	CubesGenerated  int64 // cubes emitted by the lookahead cuber
	CubesRefuted    int64 // cubes refuted under assumptions
	CubesSat        int64 // cubes found satisfiable (decides the query)
	CubeSteals      int64 // cubes drained by stolen idle slots
}

// statFields pairs every Stats field with the telemetry counter that
// carries it. It is the only list of the fields: Add, Record, and
// StatsOf all iterate it, so a field added here travels, merges, and
// renders everywhere at once. SolveDuration travels in nanoseconds.
var statFields = [...]struct {
	name  string
	field func(*Stats) *int64
}{
	{"smt.queries", func(s *Stats) *int64 { return &s.Queries }},
	{"smt.fast_queries", func(s *Stats) *int64 { return &s.FastQueries }},
	{"smt.cache_hits", func(s *Stats) *int64 { return &s.CacheHits }},
	{"smt.cache_misses", func(s *Stats) *int64 { return &s.CacheMisses }},
	{"smt.model_hits", func(s *Stats) *int64 { return &s.ModelHits }},
	{"smt.cache_bytes", func(s *Stats) *int64 { return &s.CacheBytes }},
	{"sat.conflicts", func(s *Stats) *int64 { return &s.SATConflicts }},
	{"sat.decisions", func(s *Stats) *int64 { return &s.SATDecisions }},
	{"smt.cnf_clauses", func(s *Stats) *int64 { return &s.CNFClauses }},
	{"smt.sat_instances", func(s *Stats) *int64 { return &s.Instances }},
	{"smt.solve_ns", func(s *Stats) *int64 { return (*int64)(&s.SolveDuration) }},
	{"proof.bytes", func(s *Stats) *int64 { return &s.ProofBytes }},
	{"proof.certificates", func(s *Stats) *int64 { return &s.Certificates }},
	{"inprocess.subsumed", func(s *Stats) *int64 { return &s.SubsumedClauses }},
	{"inprocess.strengthened", func(s *Stats) *int64 { return &s.StrengthenedClauses }},
	{"inprocess.vivified", func(s *Stats) *int64 { return &s.VivifiedClauses }},
	{"inprocess.eliminated", func(s *Stats) *int64 { return &s.EliminatedVars }},
	{"portfolio.race", func(s *Stats) *int64 { return &s.Races }},
	{"portfolio.win.racer", func(s *Stats) *int64 { return &s.RaceRacerWins }},
	{"portfolio.tokens", func(s *Stats) *int64 { return &s.RaceTokens }},
	{"portfolio.wasted.conflicts", func(s *Stats) *int64 { return &s.RaceWastedConflicts }},
	{"portfolio.wasted.props", func(s *Stats) *int64 { return &s.RaceWastedProps }},
	{"cube.escalation", func(s *Stats) *int64 { return &s.CubeEscalations }},
	{"cube.generated", func(s *Stats) *int64 { return &s.CubesGenerated }},
	{"cube.refuted", func(s *Stats) *int64 { return &s.CubesRefuted }},
	{"cube.sat", func(s *Stats) *int64 { return &s.CubesSat }},
	{"cube.steal", func(s *Stats) *int64 { return &s.CubeSteals }},
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	for _, f := range statFields {
		*f.field(s) += *f.field(&o)
	}
}

// Record adds s's non-zero fields to their counters in m. No-op on a
// nil m.
func (s *Stats) Record(m *telemetry.Metrics) {
	for _, f := range statFields {
		if v := *f.field(s); v != 0 {
			m.Add(f.name, v)
		}
	}
}

// StatsOf reads the solver totals recorded in m back as a Stats (zero
// for a nil m).
func StatsOf(m *telemetry.Metrics) Stats {
	var s Stats
	for _, f := range statFields {
		*f.field(&s) = m.Counter(f.name)
	}
	return s
}
