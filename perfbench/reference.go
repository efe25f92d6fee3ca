package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/tv"
)

// The benchmark's inputs are drawn from the paper reproduction's fixed
// corpus (corpus.GCCLike, profile seed 2006). The workload seed never
// changes which program text exists; it draws the order, the coarse-
// liveness rows, and the tvd request mix from this fixed set, so runs
// with different seeds do the same total work and stay comparable.
const (
	batchCorpus  = 120 // fig6 and tight draw from GCCLike(120)
	tvdCorpus    = 240 // tvd draws from the smaller half of GCCLike(240)
	maxTermNodes = 4_000_000
	// coarseRows is how many coarse-liveness functions the reference
	// designates: the corpus rows InadequateEvery marks among the first
	// coarseRows*inadequateEvery functions (fn0039 and fn0079).
	coarseRows = 2
)

// refFile is the recorded reference: every function's class under the
// fig6 budget (term-node limit only, no wall clock), with precise
// liveness and, for the designated coarse rows, with coarse liveness. It
// was computed by a configuration that shares nothing with the
// benchmarked runs — no VC cache, no portfolio, no cube, every function
// on its own. Paths are relative to the repository root, where the
// benchmark runs; workDir holds each run's scratch files.
const (
	refFile = "perfbench/reference.json"
	workDir = ".bench_build/work"
)

// RefRow is one function's reference verdicts.
type RefRow struct {
	Fine   string  `json:"fine"`
	Coarse string  `json:"coarse,omitempty"`
	FineMS float64 `json:"fine_ms"`
}

// Reference is the content of reference.json.
type Reference struct {
	Corpus       string            `json:"corpus"`
	MaxTermNodes uint64            `json:"max_term_nodes"`
	CoarseRows   []string          `json:"coarse_rows"`
	Functions    map[string]RefRow `json:"functions"`
}

func loadReference(path string) (*Reference, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading reference: %w", err)
	}
	var ref Reference
	if err := json.Unmarshal(data, &ref); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if ref.MaxTermNodes != maxTermNodes {
		return nil, fmt.Errorf("%s was recorded with max_term_nodes=%d, the benchmark uses %d",
			path, ref.MaxTermNodes, maxTermNodes)
	}
	return &ref, nil
}

// class returns the reference class of fn under the given liveness.
func (r *Reference) class(fn string, coarse bool) (tv.Class, error) {
	row, ok := r.Functions[fn]
	name := row.Fine
	if coarse {
		name = row.Coarse
	}
	c, known := tv.ParseClass(name)
	if !ok || !known {
		return 0, fmt.Errorf("no reference class for %s (coarse=%t)", fn, coarse)
	}
	return c, nil
}

// instrCount is a function's size: the number of instruction lines in
// its module text (labels and declarations excluded).
func instrCount(src string) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(line, "  ") && !strings.HasSuffix(line, ":") {
			n++
		}
	}
	return n
}

// tvdSmall marks the smaller half of fns by instruction count (ties by
// corpus order), the functions the tvd workload draws from.
func tvdSmall(fns []corpus.Function) map[string]bool {
	idx := make([]int, len(fns))
	size := make([]int, len(fns))
	for i := range fns {
		idx[i] = i
		size[i] = instrCount(fns[i].Src)
	}
	sort.SliceStable(idx, func(a, b int) bool { return size[idx[a]] < size[idx[b]] })
	small := map[string]bool{}
	for _, i := range idx[:len(fns)/2] {
		small[fns[i].Name] = true
	}
	return small
}

// makeReference validates every function the workloads can draw and
// writes reference.json. It is slow (minutes) and is run by hand when
// the corpus or the validator's semantics change on purpose.
func makeReference(path string, workers int) error {
	all := corpus.Generate(corpus.GCCLike(tvdCorpus))
	small := tvdSmall(all)
	var want []corpus.Function
	for i, f := range all {
		if i < batchCorpus || small[f.Name] {
			want = append(want, f)
		}
	}
	budget := tv.Budget{MaxTermNodes: maxTermNodes}
	run := func(fns []corpus.Function, coarse bool) *harness.Summary {
		every := 0
		if coarse {
			every = 1
		}
		return harness.Run(harness.Config{
			Functions:        fns,
			Budget:           budget,
			InadequateEvery:  every,
			Checker:          core.Options{DisableCube: true},
			Workers:          workers,
			DisableVCCache:   true,
			DisablePortfolio: true,
		})
	}
	ref := &Reference{
		Corpus:       fmt.Sprintf("corpus.GCCLike(%d), profile seed %d", tvdCorpus, corpus.GCCLike(0).Seed),
		MaxTermNodes: maxTermNodes,
		Functions:    map[string]RefRow{},
	}
	start := time.Now()
	fine := run(want, false)
	for i, r := range fine.Rows {
		f := want[i]
		ref.Functions[f.Name] = RefRow{Fine: r.Class.String(), FineMS: msOf(r.Duration)}
	}
	fmt.Fprintf(os.Stderr, "reference: precise liveness for %d functions in %s\n", len(want), time.Since(start))
	var coarseFns []corpus.Function
	for i, f := range want[:batchCorpus] {
		if i < coarseRows*inadequateEvery && i%inadequateEvery == inadequateEvery-1 {
			coarseFns = append(coarseFns, f)
		}
	}
	for i, r := range run(coarseFns, true).Rows {
		name := coarseFns[i].Name
		row := ref.Functions[name]
		row.Coarse = r.Class.String()
		ref.Functions[name] = row
		ref.CoarseRows = append(ref.CoarseRows, name)
	}
	fmt.Fprintf(os.Stderr, "reference: coarse liveness for %d functions in %s\n", len(coarseFns), time.Since(start))
	data, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
