package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/proof"
	"repro/internal/smt"
	"repro/internal/tv"
)

// TestPortfolioRowsMatchAblation: the escalation ladder is a pure
// accelerator — the outcome table must be byte-identical to a run with
// the ladder disabled. After=1 and CubeAfter=1 escalate every query that
// survives a single probe, maximizing the chance a cube conquest supplies
// the verdict.
func TestPortfolioRowsMatchAblation(t *testing.T) {
	// Term-node budgets only: wall-clock budgets classify
	// timing-dependently under the race detector's slowdown.
	budget := tv.Budget{MaxTermNodes: 4_000_000}
	baseline := Run(Config{
		Profile: parallelProfile, Budget: budget, Workers: 4,
		DisablePortfolio: true,
	})
	laddered := Run(Config{
		Profile: parallelProfile, Budget: budget, Workers: 4,
		Checker: core.Options{Portfolio: &smt.Portfolio{After: 1, CubeAfter: 1}},
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
	t.Logf("escalations=%d", laddered.SMTStats.CubeEscalations)
}

// TestColdLadderMatchesAblation runs one function through the cold-SMT
// ablation (a fresh SAT instance per query) with every query escalated to
// cube-and-conquer, against the same function with the ladder off. The
// cubes are built from the query solver's own CNF and conquered on it
// under assumptions, so every variable the cuber branches on must be one
// the solver can assume; the row must match the ladder-off row and
// succeed.
func TestColdLadderMatchesAblation(t *testing.T) {
	var fns []corpus.Function
	for _, f := range corpus.Generate(corpus.GCCLike(40)) {
		if f.Name == "fn0029" {
			fns = append(fns, f)
		}
	}
	if len(fns) != 1 {
		t.Fatalf("corpus holds %d functions named fn0029, want 1", len(fns))
	}
	budget := tv.Budget{MaxTermNodes: 4_000_000}
	baseline := Run(Config{
		Functions: fns, Budget: budget, Workers: 1,
		DisablePortfolio: true,
		Checker:          core.Options{DisableIncrementalSMT: true},
	})
	laddered := Run(Config{
		Functions: fns, Budget: budget, Workers: 1,
		Checker: core.Options{
			DisableIncrementalSMT: true,
			Portfolio:             &smt.Portfolio{After: 1, CubeAfter: 1},
		},
	})
	b, r := baseline.Rows[0], laddered.Rows[0]
	if b.Fn != r.Fn || b.Class != r.Class || b.CodeSize != r.CodeSize {
		t.Errorf("rows differ: baseline {%s %v %d} vs laddered {%s %v %d}",
			b.Fn, b.Class, b.CodeSize, r.Fn, r.Class, r.CodeSize)
	}
	if r.Class != tv.ClassSucceeded {
		t.Errorf("laddered row is %v, want %v (err: %v)", r.Class, tv.ClassSucceeded, r.Err)
	}
	if laddered.SMTStats.CubeEscalations == 0 {
		t.Error("no query escalated: the ladder never engaged")
	}
}

// TestPortfolioProofsVerify: a proof-emitting run with aggressive
// escalation must produce a certificate directory the independent checker
// accepts wholesale, with rows identical to the ladder-off ablation. The
// second leg has more workers than functions, so workers sit idle while
// cubes are conquered: every conquest must still run in place. The third
// leg runs cold SMT, so every query is certified in its own session.
func TestPortfolioProofsVerify(t *testing.T) {
	small := parallelProfile
	small.Functions = 3
	for _, leg := range []struct {
		name    string
		profile corpus.Profile
		workers int
		cold    bool
	}{
		{"busy", parallelProfile, 4, false},
		{"idle", small, 4, false},
		{"cold", small, 2, true},
	} {
		t.Run(leg.name, func(t *testing.T) {
			budget := tv.Budget{MaxTermNodes: 4_000_000}
			dir := t.TempDir()
			sum := Run(Config{
				Profile: leg.profile, Budget: budget, Workers: leg.workers,
				Checker: core.Options{
					Portfolio:             &smt.Portfolio{After: 1, CubeAfter: 1},
					DisableIncrementalSMT: leg.cold,
				},
				ProofDir: dir,
			})
			if sum.ProofErr != nil {
				t.Fatalf("proof emission failed: %v", sum.ProofErr)
			}
			if sum.SMTStats.CubeEscalations == 0 {
				t.Error("no query escalated: the ladder never engaged")
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
			ablation := Run(Config{
				Profile: leg.profile, Budget: budget, Workers: leg.workers,
				Checker:          core.Options{DisableIncrementalSMT: leg.cold},
				DisablePortfolio: true,
			})
			if len(ablation.Rows) != len(sum.Rows) {
				t.Fatalf("row counts differ: %d vs %d", len(ablation.Rows), len(sum.Rows))
			}
			for i := range ablation.Rows {
				b, r := ablation.Rows[i], sum.Rows[i]
				if b.Fn != r.Fn || b.Class != r.Class || b.CodeSize != r.CodeSize {
					t.Errorf("row %d differs: ablation {%s %v %d} vs ladder {%s %v %d}",
						i, b.Fn, b.Class, b.CodeSize, r.Fn, r.Class, r.CodeSize)
				}
			}
		})
	}
}
