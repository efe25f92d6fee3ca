// Command keq is the language-parametric equivalence checker: given an
// LLVM IR function, a Virtual x86 function, and a synchronization-point
// file (the verification condition), it checks that the relation is a
// cut-bisimulation witnessing their equivalence — Algorithm 1 of the
// paper, over the two bundled semantics.
//
// Usage:
//
//	keq [-fn name] [-mode equivalence|refinement] [-timeout 60s] input.ll output.vx86 points.sync
//
// Exit status: 0 validated, 1 not validated, 2 usage/input error.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/llvmir"
	"repro/internal/proof"
	"repro/internal/telemetry"
	"repro/internal/tv"
	"repro/internal/vx86"
)

func main() {
	fnName := flag.String("fn", "", "function to validate (default: the sole definition)")
	mode := flag.String("mode", "equivalence", "equivalence or refinement")
	timeout := flag.Duration("timeout", 10*time.Minute, "per-run wall-clock budget")
	verbose := flag.Bool("v", false, "print per-point statistics")
	emitProof := flag.String("emit-proof", "", "write proof certificates and the bisimulation witness to this directory")
	traceFile := flag.String("trace", "", "write a JSONL span trace of the check to this file (lint with tracelint)")
	flag.Parse()
	if flag.NArg() != 3 {
		fmt.Fprintln(os.Stderr, "usage: keq [flags] input.ll output.vx86 points.sync")
		flag.Usage()
		os.Exit(2)
	}

	llSrc, err := os.ReadFile(flag.Arg(0))
	check(err)
	mod, err := llvmir.Parse(string(llSrc))
	check(err)
	check(llvmir.Verify(mod))

	xSrc, err := os.ReadFile(flag.Arg(1))
	check(err)
	prog, err := vx86.Parse(string(xSrc))
	check(err)

	pSrc, err := os.Open(flag.Arg(2))
	check(err)
	points, err := core.ParseSyncPoints(pSrc)
	check(err)
	pSrc.Close()

	var fn *llvmir.Function
	if *fnName != "" {
		fn = mod.Func(*fnName)
	} else {
		for _, f := range mod.Funcs {
			if f.Defined() {
				fn = f
			}
		}
	}
	if fn == nil || !fn.Defined() {
		check(fmt.Errorf("no function definition (use -fn)"))
	}
	xfn := prog.Func(fn.Name)
	if xfn == nil {
		check(fmt.Errorf("no Virtual x86 function %q", fn.Name))
	}

	opts := core.Options{}
	switch strings.ToLower(*mode) {
	case "equivalence":
	case "refinement":
		opts.Mode = core.Refinement
	default:
		check(fmt.Errorf("unknown -mode %q", *mode))
	}

	var rec *proof.Recorder
	if *emitProof != "" {
		var err error
		rec, err = proof.NewRecorder(*emitProof, fn.Name)
		check(err)
		opts.Proof = rec
	}
	var tracer *telemetry.Tracer
	if *traceFile != "" {
		tracer = telemetry.NewTracer()
		opts.Trace = tracer
	}

	out := tv.ValidateTranslation(mod, fn, xfn, points, opts, tv.Budget{Timeout: *timeout})
	if tracer != nil {
		f, err := os.Create(*traceFile)
		check(err)
		check(tracer.WriteJSONL(f))
		check(f.Close())
	}
	if rec != nil {
		_, err := rec.Close(out.Class == tv.ClassSucceeded)
		check(err)
		m := &proof.Manifest{
			Functions: []proof.ManifestRow{{
				Name: fn.Name, Class: out.Class.String(),
				Certified: out.Class == tv.ClassSucceeded,
			}},
		}
		check(proof.WriteManifest(*emitProof, m))
	}
	if *verbose && out.Report != nil {
		fmt.Printf("points checked: %d, states: %d, SMT queries: %d (%d fast)\n",
			out.Report.Stats.PointsChecked, out.Report.Stats.StatesExplored,
			out.SMTStats.Queries, out.SMTStats.FastQueries)
	}
	switch out.Class {
	case tv.ClassSucceeded:
		fmt.Printf("keq: @%s VALIDATED (%s, %v)\n", fn.Name, *mode, out.Duration.Round(time.Millisecond))
	case tv.ClassNotValidated:
		fmt.Printf("keq: @%s NOT VALIDATED\n", fn.Name)
		if out.Report != nil {
			for _, f := range out.Report.Failures {
				fmt.Printf("  %s\n", f)
			}
		}
		os.Exit(1)
	default:
		fmt.Printf("keq: @%s FAILED: %s (%v)\n", fn.Name, out.Class, out.Err)
		os.Exit(1)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "keq:", err)
		os.Exit(2)
	}
}
