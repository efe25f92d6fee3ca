// Command perfbench is the repository's benchmark of record. It runs one
// workload (fig6, tight or tvd) from a seed, checks every output against
// the recorded reference and the independent proof checker, and prints
// one JSON result object as the last line of standard output.
//
//	perfbench --workload fig6 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it carries the per-layer breakdown from a traced run. See
// README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/telemetry"
)

type opts struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	work     string // scratch directory for this run, under workDir
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// checks counts output checks: operations attempted and failed.
type checks struct {
	attempted, failed int
	problems          []string
}

func (c *checks) attempt() { c.attempted++ }

func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

// output collects what a workload measured.
type output struct {
	checks *checks
	layers *layers
	record map[string]any
	tracer *telemetry.Tracer

	setupS      float64
	fnsPerS     float64
	cpuPerFn    float64
	latP50      float64
	latTail     Quantile
	decidedFrac float64
	peakHeapMiB float64
	checkPerFn  float64
	phase       phaseDelta
}

func (o *output) endToEnd() map[string]metric {
	return map[string]metric{
		"setup_s":        {o.setupS, "s"},
		"fns_per_s":      {o.fnsPerS, "1/s"},
		"cpu_s_per_fn":   {o.cpuPerFn, "s"},
		"lat_p50_ms":     {o.latP50, "ms"},
		"lat_tail_ms":    {o.latTail.Value, "ms"},
		"decided_frac":   {o.decidedFrac, "ratio"},
		"peak_heap_mib":  {o.peakHeapMiB, "MiB"},
		"check_s_per_fn": {o.checkPerFn, "s"},
	}
}

func main() {
	var o opts
	var seconds int
	var trace int
	var mkref string
	flag.StringVar(&o.workload, "workload", "", "fig6, tight or tvd")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&seconds, "seconds", 20, "length of the measured phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&mkref, "mkref", "", "recompute the reference into this file and exit")
	flag.Parse()
	if mkref != "" {
		if err := makeReference(mkref, workers); err != nil {
			fatal(err)
		}
		return
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = trace == 1
	if err := run(o); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(o opts) error {
	ref, err := loadReference(refFile)
	if err != nil {
		return err
	}
	o.work = filepath.Join(workDir, fmt.Sprintf("%s-%d-%d", o.workload, o.seed, os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(o.work)

	out := &output{checks: &checks{}, layers: newLayers(), record: map[string]any{}}
	switch o.workload {
	case "fig6", "tight":
		err = runBatch(o, ref, out)
	case "tvd":
		err = runTVD(o, ref, out)
	default:
		err = fmt.Errorf("unknown workload %q (want fig6, tight or tvd)", o.workload)
	}
	if err != nil {
		return err
	}

	m := machine(o.seed)
	m.StealTicks = out.phase.StealTicks
	m.StealFrac = out.phase.StealFrac
	out.record["workload"] = o.workload
	out.record["machine"] = m
	out.record["lat_tail"] = out.latTail
	out.record["problems"] = out.checks.problems

	res := result{
		Correct:   out.checks.failed == 0,
		Attempted: out.checks.attempted,
		Failed:    out.checks.failed,
		Metrics:   out.endToEnd(),
	}
	if o.trace {
		out.layers.runtime(out.phase)
		res.Metrics = out.layers.metrics
	}
	if res.Attempted == 0 {
		return fmt.Errorf("no operation was attempted")
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"record": out.record}); err != nil {
		return err
	}
	return enc.Encode(&res)
}
