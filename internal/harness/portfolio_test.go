package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/proof"
	"repro/internal/smt"
	"repro/internal/tv"
)

// TestPortfolioRowsMatchAblation: the escalation ladder, with cube
// workers on idle worker slots, is a pure accelerator — the outcome table
// must be byte-identical to a run with the ladder and inprocessing
// disabled. After=1 and CubeAfter=1 escalate every query that survives a
// single probe, maximizing the chance a cube conquest supplies the
// verdict.
func TestPortfolioRowsMatchAblation(t *testing.T) {
	// Term-node budgets only: wall-clock budgets classify
	// timing-dependently under the race detector's slowdown.
	budget := tv.Budget{MaxTermNodes: 4_000_000}
	baseline := Run(Config{
		Profile: parallelProfile, Budget: budget, Workers: 4,
		DisablePortfolio: true,
		Checker:          core.Options{DisableInprocess: true},
	})
	pf := smt.NewPortfolio(4)
	pf.After = 1
	pf.CubeAfter = 1
	laddered := Run(Config{
		Profile: parallelProfile, Budget: budget, Workers: 4,
		Checker: core.Options{Portfolio: pf},
	})

	if len(baseline.Rows) != len(laddered.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(baseline.Rows), len(laddered.Rows))
	}
	for i := range baseline.Rows {
		b, r := baseline.Rows[i], laddered.Rows[i]
		if b.Fn != r.Fn || b.Class != r.Class || b.CodeSize != r.CodeSize {
			t.Errorf("row %d differs: baseline {%s %v %d} vs portfolio {%s %v %d}",
				i, b.Fn, b.Class, b.CodeSize, r.Fn, r.Class, r.CodeSize)
		}
	}
	if laddered.SMTStats.CubeEscalations == 0 {
		t.Error("no query escalated: the ladder never engaged")
	}
	var stats strings.Builder
	laddered.RenderStats(&stats)
	if !strings.Contains(stats.String(), "Ladder: ") {
		t.Errorf("RenderStats shows no Ladder line for an escalating run:\n%s", stats.String())
	}
	t.Logf("escalations=%d steals=%d", laddered.SMTStats.CubeEscalations, laddered.SMTStats.CubeSteals)
}

// TestPortfolioProofsVerify: a proof-emitting run with aggressive
// escalation must produce a certificate directory the independent checker
// accepts wholesale — cube-composed traces included.
func TestPortfolioProofsVerify(t *testing.T) {
	dir := t.TempDir()
	pf := smt.NewPortfolio(4)
	pf.After = 1
	pf.CubeAfter = 1
	sum := Run(Config{
		Profile: parallelProfile, Budget: tv.Budget{MaxTermNodes: 4_000_000},
		Workers:  4,
		Checker:  core.Options{Portfolio: pf},
		ProofDir: dir,
	})
	if sum.ProofErr != nil {
		t.Fatalf("proof emission failed: %v", sum.ProofErr)
	}
	report, err := proof.CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range report.Rejections {
		t.Errorf("rejection: %s", r)
	}
	if report.ByKind[proof.KindDRAT] == 0 {
		t.Error("no DRAT certificates emitted")
	}
	if report.Witnesses == 0 {
		t.Error("no bisimulation witnesses verified")
	}
}
