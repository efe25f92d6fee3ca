package smt

import (
	"time"

	"repro/internal/telemetry"
)

// This file is the glue between the solver and the telemetry layer: one
// span and one latency observation per CheckSat query, annotated with the
// query's outcome. Everything here is reached only when a Tracer or
// Metrics registry is attached (see CheckSat), so the disabled path never
// pays more than one nil check. The solver's totals (Stats) are not
// counted here: the harness folds them into the job's registry once per
// function (Stats.Record).

// finishQuery closes the per-query span and records the query's latency.
// before is a snapshot of Stats at query entry; the attribute values are
// the deltas this query contributed.
func (s *Solver) finishQuery(sp *telemetry.Span, start time.Time, before Stats, res Result) {
	d := time.Since(start)
	s.Metrics.Observe("smt.query", d)
	s.Metrics.Add("smt.query."+res.String(), 1)
	if sp == nil {
		return
	}
	sp.SetAttr("result", res.String())
	sp.SetAttr("conflicts", s.Stats.SATConflicts-before.SATConflicts)
	if s.queryVars > 0 {
		sp.SetAttr("sat_vars", s.queryVars)
	}
	if s.CacheResults {
		sp.SetAttr("cache_hit", s.Stats.CacheHits > before.CacheHits)
	}
	if s.Stats.FastQueries > before.FastQueries {
		sp.SetAttr("fast", true)
	}
	if s.Stats.ModelHits > before.ModelHits {
		sp.SetAttr("model_hit", true)
	}
	if s.Stats.Certificates > before.Certificates && s.lastCert != "" {
		sp.SetAttr("cert", s.lastCert)
	}
	sp.End()
}
