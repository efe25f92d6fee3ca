package main

import (
	"time"

	"repro/internal/smt"
	"repro/internal/telemetry"
)

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them on every workload; a layer the workload does not
// reach reads 0.
var layerUnits = []struct{ name, unit string }{
	{"corpus.generate_ms", "ms"},
	{"llvmir.parse_ms", "ms"},
	{"isel.compile_ms", "ms"},
	{"vcgen.generate_ms", "ms"},
	{"vcgen.points", "count"},
	{"core.step_ms", "ms"},
	{"core.pairs", "count"},
	{"smt.queries", "count"},
	{"smt.query_ms", "ms"},
	{"smt.query_p50_ms", "ms"},
	{"smt.query_p99_ms", "ms"},
	{"smt.fast_frac", "ratio"},
	{"smt.cache_hit_frac", "ratio"},
	{"smt.cnf_clauses", "count"},
	{"sat.conflicts", "count"},
	{"sat.decisions", "count"},
	{"sat.decisions_per_conflict", "ratio"},
	{"sat.conflicts_per_s", "1/s"},
	{"sat.inprocess.subsumed", "count"},
	{"sat.inprocess.vivified", "count"},
	{"sat.inprocess.eliminated", "count"},
	{"portfolio.races", "count"},
	{"portfolio.racer_win_frac", "ratio"},
	{"portfolio.wasted_conflicts", "count"},
	{"portfolio.probe_extend", "count"},
	{"cube.escalations", "count"},
	{"cube.win_frac", "ratio"},
	{"cube.build_ms", "ms"},
	{"cube.steals", "count"},
	{"proof.bytes_per_fn", "B"},
	{"proof.certificates", "count"},
	{"proof.check_ms", "ms"},
	{"proof.check_rejects", "count"},
	{"store.get_p50_ms", "ms"},
	{"store.get_p99_ms", "ms"},
	{"store.put_p50_ms", "ms"},
	{"store.hit_frac", "ratio"},
	{"store.entry_kib", "KiB"},
	{"store.bytes", "B"},
	{"tvd.queue_p50_ms", "ms"},
	{"tvd.hit_row_p50_ms", "ms"},
	{"tvd.wire_ms", "ms"},
	{"tvd.rejected", "count"},
	{"harness.busy_frac", "ratio"},
	{"gc.cpu_frac", "ratio"},
	{"gc.cycles", "count"},
	{"alloc_mib_per_fn", "MiB"},
	{"host.steal_frac", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// layers accumulates the per-layer breakdown of a traced run.
type layers struct {
	metrics map[string]metric
	spans   spanAcc
	// rows is the number of functions validated in the measured phase,
	// the denominator of alloc_mib_per_fn.
	rows int
}

func newLayers() *layers {
	l := &layers{metrics: map[string]metric{}}
	for _, lu := range layerUnits {
		l.metrics[lu.name] = metric{0, lu.unit}
	}
	return l
}

// set records a metric listed in layerUnits.
func (l *layers) set(name string, v float64) {
	m, ok := l.metrics[name]
	if !ok {
		panic("perfbench: unlisted layer metric " + name)
	}
	m.Value = v
	l.metrics[name] = m
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// spanAcc sums the spans the program emits, one trace (span-ID space)
// at a time.
type spanAcc struct {
	parse, isel, vcgen, check, checkQueries time.Duration
	points, pairs                           int
	queries                                 []time.Duration
	fast, cacheHits                         int64
}

// add folds one trace in. Self time of core stepping is tv.check minus
// the smt.query spans nested anywhere below it.
func (a *spanAcc) add(recs []telemetry.Record) {
	byID := make(map[telemetry.SpanID]*telemetry.Record, len(recs))
	for i := range recs {
		byID[recs[i].ID] = &recs[i]
	}
	underCheck := func(r *telemetry.Record) bool {
		for p := byID[r.Parent]; p != nil; p = byID[p.Parent] {
			if p.Name == "tv.check" {
				return true
			}
		}
		return false
	}
	for i := range recs {
		r := &recs[i]
		d := time.Duration(r.DurNS)
		switch r.Name {
		case "harness.parse":
			a.parse += d
		case "tv.isel":
			a.isel += d
		case "tv.vcgen":
			a.vcgen += d
		case "tv.check":
			a.check += d
		case "core.point":
			a.points++
		case "core.pair":
			a.pairs++
		case "smt.query":
			a.queries = append(a.queries, d)
			if b, _ := r.Attrs["fast"].(bool); b {
				a.fast++
			}
			if b, _ := r.Attrs["cache_hit"].(bool); b {
				a.cacheHits++
			}
			if underCheck(r) {
				a.checkQueries += d
			}
		}
	}
}

// finishSpans turns the accumulated spans into metrics.
func (l *layers) finishSpans() {
	a := &l.spans
	l.set("llvmir.parse_ms", msOf(a.parse))
	l.set("isel.compile_ms", msOf(a.isel))
	l.set("vcgen.generate_ms", msOf(a.vcgen))
	l.set("vcgen.points", float64(a.points))
	l.set("core.step_ms", msOf(a.check-a.checkQueries))
	l.set("core.pairs", float64(a.pairs))
	var total time.Duration
	for _, d := range a.queries {
		total += d
	}
	qs := ms(a.queries)
	n := int64(len(qs))
	l.set("smt.queries", float64(n))
	l.set("smt.query_ms", msOf(total))
	l.set("smt.query_p50_ms", percentile(qs, 50).Value)
	l.set("smt.query_p99_ms", percentile(qs, 99).Value)
	l.set("smt.fast_frac", frac(a.fast, n))
	l.set("smt.cache_hit_frac", frac(a.cacheHits, n))
}

// solver folds run-wide solver counters in: smt.Stats for the SAT and
// ladder totals, the telemetry registry for counters smt.Stats lacks.
func (l *layers) solver(st smt.Stats, m *telemetry.Metrics) {
	l.set("smt.cnf_clauses", float64(st.CNFClauses))
	l.set("sat.conflicts", float64(st.SATConflicts))
	l.set("sat.decisions", float64(st.SATDecisions))
	l.set("sat.decisions_per_conflict", frac(st.SATDecisions, st.SATConflicts))
	if s := st.SolveDuration.Seconds(); s > 0 {
		l.set("sat.conflicts_per_s", float64(st.SATConflicts)/s)
	}
	l.set("sat.inprocess.subsumed", float64(st.SubsumedClauses))
	l.set("sat.inprocess.vivified", float64(st.VivifiedClauses))
	l.set("sat.inprocess.eliminated", float64(st.EliminatedVars))
	l.set("portfolio.races", float64(st.Races))
	l.set("portfolio.racer_win_frac", frac(st.RaceRacerWins, st.Races))
	l.set("portfolio.wasted_conflicts", float64(st.RaceWastedConflicts))
	l.set("portfolio.probe_extend", float64(m.Counter("portfolio.probe.extend")))
	l.set("cube.escalations", float64(st.CubeEscalations))
	l.set("cube.win_frac", frac(m.Counter("cube.unsat")+m.Counter("cube.sat"), st.CubeEscalations))
	l.set("cube.build_ms", float64(m.Counter("cube.build.ms")))
	l.set("cube.steals", float64(st.CubeSteals))
	l.set("proof.certificates", float64(st.Certificates))
}

// batchLayers fills the breakdown of a fig6 or tight traced run from
// its untraced and traced passes (same functions, same order).
func (l *layers) batchLayers(untraced, traced *batchPass, tracer *telemetry.Tracer) {
	l.spans.add(tracer.Records())
	l.finishSpans()
	l.solver(traced.stats, traced.metrics)
	var busy time.Duration
	for _, r := range traced.rows {
		busy += r.Duration
	}
	l.set("harness.busy_frac", busy.Seconds()/(workers*traced.wall.Seconds()))
	if traced.report != nil {
		l.set("proof.bytes_per_fn", float64(traced.stats.ProofBytes)/float64(max(1, traced.certified())))
		l.set("proof.check_ms", msOf(traced.check))
		l.set("proof.check_rejects", float64(len(traced.report.Rejections)))
	}
	l.set("trace.overhead_frac", traced.wall.Seconds()/untraced.wall.Seconds()-1)
}

// runtime fills the Go runtime and host rows from the measured phase.
func (l *layers) runtime(p phaseDelta) {
	l.set("gc.cpu_frac", p.GCCPUFrac)
	l.set("gc.cycles", float64(p.GCCycles))
	if l.rows > 0 {
		l.set("alloc_mib_per_fn", float64(p.AllocBytes)/(1<<20)/float64(l.rows))
	}
	l.set("host.steal_frac", p.StealFrac)
}
