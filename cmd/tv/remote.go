package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/corpus"
	"repro/internal/llvmir"
	"repro/internal/telemetry"
	"repro/internal/tv"
	"repro/internal/tvd"
)

// remoteBatch sends fns to a tvd daemon as one batch and returns the
// result. Progress lines (one per function, in completion order) mirror
// the local harness format, with a "cached" marker for store hits.
func remoteBatch(addr string, fns []corpus.Function, budget tv.Budget,
	wantProofs, wantTrace bool, progress io.Writer) (*tvd.BatchResult, error) {
	c := tvd.NewClient(addr)
	c.RetryBudget = 2 * time.Minute
	req := &tvd.BatchRequest{
		TimeoutSeconds: budget.Timeout.Seconds(),
		MaxTermNodes:   budget.MaxTermNodes,
		ConflictBudget: budget.ConflictBudget,
		Proofs:         wantProofs,
		Trace:          wantTrace,
	}
	for _, f := range fns {
		req.Jobs = append(req.Jobs, tvd.JobRequest{Fn: f.Name, IR: f.Src})
	}
	done := 0
	return c.ValidateAll(req, func(rec telemetry.Record) {
		if progress == nil {
			return
		}
		done++
		fn, _ := rec.Attrs["fn"].(string)
		class, _ := rec.Attrs["class"].(string)
		mark := ""
		if cached, _ := rec.Attrs["cached"].(bool); cached {
			mark = " (store)"
		}
		fmt.Fprintf(progress, "%4d/%d %-8s %-28s %8.2fs%s\n",
			done, len(fns), fn, class,
			time.Duration(rec.DurNS).Seconds(), mark)
	})
}

// finishRemote handles the client-side outputs every remote run shares:
// materializing -emit-proofs artifacts, writing the -trace span file,
// and reporting store traffic.
func finishRemote(res *tvd.BatchResult, proofDir, traceFile string) {
	fmt.Fprintf(os.Stderr, "tv: server run: %d/%d functions from the result store\n",
		res.StoreHits, res.StoreHits+res.StoreMisses)
	if proofDir != "" {
		check(os.MkdirAll(proofDir, 0o755))
		check(tvd.MaterializeProofs(proofDir, res))
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		check(err)
		enc := json.NewEncoder(f)
		for i := range res.Trace {
			check(enc.Encode(&res.Trace[i]))
		}
		check(f.Close())
	}
}

// validateFileRemote is single-file mode against a daemon: every
// defined function in the module becomes one job.
func validateFileRemote(path, addr string, budget tv.Budget,
	proofDir, traceFile string, statsJSON, phaseReport bool) int {
	src, err := os.ReadFile(path)
	check(err)
	mod, err := llvmir.Parse(string(src))
	check(err)
	check(llvmir.Verify(mod))
	var fns []corpus.Function
	for _, fn := range mod.Funcs {
		if fn.Defined() {
			fns = append(fns, corpus.Function{Name: fn.Name, Src: string(src)})
		}
	}
	if len(fns) == 0 {
		fmt.Fprintln(os.Stderr, "tv: no defined functions in", path)
		return 1
	}
	res, err := remoteBatch(addr, fns, budget, proofDir != "", traceFile != "", nil)
	check(err)
	failed := false
	for _, row := range res.Rows {
		mark := ""
		if row.Cached {
			mark = "  (store)"
		}
		fmt.Printf("@%-30s %-28s %8.2fs%s\n",
			row.Fn, row.Class, time.Duration(row.DurationNS).Seconds(), mark)
		if c, _ := tv.ParseClass(row.Class); c != tv.ClassSucceeded {
			failed = true
			if row.Err != "" {
				fmt.Printf("    %s\n", row.Err)
			}
		}
	}
	finishRemote(res, proofDir, traceFile)
	if phaseReport {
		fmt.Println()
		res.Summary().PhaseReport(os.Stdout)
	}
	if statsJSON {
		printStatsJSON(res.Stats)
	}
	if failed {
		return 1
	}
	return 0
}

// printStatsJSON writes one JSON object to stdout — the machine-
// readable form of -stats.
func printStatsJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	check(enc.Encode(v))
}
