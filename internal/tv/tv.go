// Package tv assembles the full translation-validation pipeline of the
// paper's Figure 5: ISel compiles the LLVM function and emits hints, the
// VC generator produces synchronization points, and KEQ (internal/core)
// checks that they form a cut-bisimulation between the two programs under
// the LLVM and Virtual x86 semantics.
package tv

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/isel"
	"repro/internal/llvmir"
	"repro/internal/smt"
	"repro/internal/telemetry"
	"repro/internal/vcgen"
	"repro/internal/vx86"
)

// Budget bounds one validation run, mirroring the paper's per-function
// limits (3-hour timeout, 12 GB memory).
type Budget struct {
	// Timeout bounds wall-clock time for the whole pipeline — ISel, VC
	// generation, symbolic stepping, and SMT solving — measured from
	// Validate/ValidateTranslation entry, like the paper's 3-hour
	// per-function limit (0 = none).
	Timeout time.Duration
	// MaxTermNodes bounds solver term allocation — the stand-in for the
	// memory limit (0 = none).
	MaxTermNodes uint64
	// ConflictBudget bounds CDCL conflicts per SMT query (0 = none).
	ConflictBudget int64
}

// deadlineFrom converts the relative Timeout into the absolute deadline
// for a run that started at start (zero when unbounded).
func (b Budget) deadlineFrom(start time.Time) time.Time {
	if b.Timeout <= 0 {
		return time.Time{}
	}
	return start.Add(b.Timeout)
}

// pastDeadline reports whether a non-zero deadline has elapsed.
func pastDeadline(d time.Time) bool {
	return !d.IsZero() && time.Now().After(d)
}

// Class classifies an outcome the way Figure 6 does.
type Class int8

// Outcome classes (the rows of Figure 6).
const (
	ClassSucceeded Class = iota
	ClassNotValidated
	ClassTimeout
	ClassOOM
	ClassOther
	ClassUnsupported
)

func (c Class) String() string {
	switch c {
	case ClassSucceeded:
		return "Succeeded"
	case ClassNotValidated:
		return "Not validated"
	case ClassTimeout:
		return "Failed due to timeout"
	case ClassOOM:
		return "Failed due to out-of-memory"
	case ClassOther:
		return "Other"
	case ClassUnsupported:
		return "Unsupported"
	}
	return "?"
}

// ParseClass maps a Class.String() rendering back to its Class. The
// result-store records classes by their stable string form (an int8
// would silently re-map if the enum were ever reordered); this is the
// decoding side. The second result is false for unknown strings.
func ParseClass(s string) (Class, bool) {
	for c := ClassSucceeded; c <= ClassUnsupported; c++ {
		if c.String() == s {
			return c, true
		}
	}
	return ClassOther, false
}

// PhaseTimes is the wall-clock breakdown of one validation run. Parse is
// zero unless the caller (the harness) parsed the module as part of the
// per-function work. SMT is the portion of Check spent inside solver
// calls, so Check-SMT is the symbolic-stepping overhead.
type PhaseTimes struct {
	Parse time.Duration
	ISel  time.Duration
	VCGen time.Duration
	Check time.Duration
	SMT   time.Duration
}

// MemStats is the allocation breakdown of one validation run, sampled
// from runtime.MemStats at phase boundaries: each phase field is the
// TotalAlloc delta across that phase, and Peak is the largest HeapAlloc
// seen at any boundary. The counters are process-global, so with
// parallel workers a phase is charged with everything allocated while
// it ran, including other workers' allocations — an approximation that
// still localizes which phase an out-of-memory row died in. Parse is
// filled by the harness when module parsing is part of per-function work.
type MemStats struct {
	Parse int64
	ISel  int64
	VCGen int64
	Check int64
	Peak  int64
}

// Outcome is the result of validating one function.
type Outcome struct {
	Fn       string
	Class    Class
	Report   *core.Report
	Err      error
	Duration time.Duration
	Phases   PhaseTimes
	Mem      MemStats
	CodeSize int // LLVM instruction count (the Figure 7 size metric)
	Points   int
	Compiled *isel.Result
	SMTStats smt.Stats

	// memMark is the TotalAlloc reading at the previous phase boundary.
	memMark int64
}

// MarkPhase samples the runtime allocation counters, charges the delta
// since the previous boundary to *phase (nil: establish the baseline
// only), and folds the current heap size into Mem.Peak. Exported so the
// harness can charge its per-function parse phase with the same clock.
func (o *Outcome) MarkPhase(phase *int64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	ta := int64(ms.TotalAlloc)
	if phase != nil {
		*phase = ta - o.memMark
	}
	o.memMark = ta
	if ha := int64(ms.HeapAlloc); ha > o.Mem.Peak {
		o.Mem.Peak = ha
	}
}

// Validate runs the whole pipeline for one function of mod.
func Validate(mod *llvmir.Module, fnName string, iopts isel.Options, vopts vcgen.Options,
	copts core.Options, budget Budget) *Outcome {
	start := time.Now()
	deadline := budget.deadlineFrom(start)
	out := &Outcome{Fn: fnName}
	out.MarkPhase(nil)
	root := copts.Trace.Start(copts.TraceParent, "tv.validate",
		telemetry.String("fn", fnName))
	if root != nil {
		copts.TraceParent = root.ID()
	}
	defer func() {
		out.Duration = time.Since(start)
		if root != nil {
			root.SetAttr("class", out.Class.String())
			root.End()
		}
	}()

	fn := mod.Func(fnName)
	if fn == nil || !fn.Defined() {
		out.Class = ClassOther
		out.Err = fmt.Errorf("tv: no definition of @%s", fnName)
		return out
	}
	out.CodeSize = fn.NumInstrs()

	iselStart := time.Now()
	iselSpan := copts.Trace.Start(copts.TraceParent, "tv.isel")
	if iselSpan != nil {
		iopts.Trace = copts.Trace
		iopts.TraceParent = iselSpan.ID()
	}
	res, err := isel.Compile(mod, fn, iopts)
	out.Phases.ISel = time.Since(iselStart)
	// The allocation sample stops the world and can wait on other
	// workers; the span covers it so tv.validate's breakdown explains
	// its own duration.
	out.MarkPhase(&out.Mem.ISel)
	iselSpan.End()
	if err != nil {
		var uns *isel.ErrUnsupported
		if errors.As(err, &uns) {
			out.Class = ClassUnsupported
		} else {
			out.Class = ClassOther
		}
		out.Err = err
		return out
	}
	if pastDeadline(deadline) {
		out.Class = ClassTimeout
		out.Err = fmt.Errorf("tv: instruction selection of @%s: %w", fnName, smt.ErrDeadline)
		return out
	}
	out.Compiled = res
	return validateCompiled(mod, fn, res, vopts, copts, budget, deadline, out)
}

// ValidateTranslation checks an existing (possibly externally produced)
// translation: the cmd/keq entry point.
func ValidateTranslation(mod *llvmir.Module, fn *llvmir.Function, xfn *vx86.Function,
	points []*core.SyncPoint, copts core.Options, budget Budget) *Outcome {
	start := time.Now()
	deadline := budget.deadlineFrom(start)
	out := &Outcome{Fn: fn.Name, CodeSize: fn.NumInstrs(), Points: len(points)}
	out.MarkPhase(nil)
	root := copts.Trace.Start(copts.TraceParent, "tv.validate",
		telemetry.String("fn", fn.Name))
	if root != nil {
		copts.TraceParent = root.ID()
	}
	defer func() {
		out.Duration = time.Since(start)
		if root != nil {
			root.SetAttr("class", out.Class.String())
			root.End()
		}
	}()
	runCheck(mod, fn, xfn, points, copts, budget, deadline, out)
	return out
}

func validateCompiled(mod *llvmir.Module, fn *llvmir.Function, res *isel.Result,
	vopts vcgen.Options, copts core.Options, budget Budget, deadline time.Time, out *Outcome) *Outcome {
	vcStart := time.Now()
	vcSpan := copts.Trace.Start(copts.TraceParent, "tv.vcgen")
	if vcSpan != nil {
		vopts.Trace = copts.Trace
		vopts.TraceParent = vcSpan.ID()
	}
	points, err := vcgen.Generate(fn, res.Fn, res.Hints, vopts)
	out.Phases.VCGen = time.Since(vcStart)
	out.MarkPhase(&out.Mem.VCGen) // inside the span, as for ISel
	vcSpan.End()
	if err != nil {
		out.Class = ClassOther
		out.Err = err
		return out
	}
	if pastDeadline(deadline) {
		out.Class = ClassTimeout
		out.Err = fmt.Errorf("tv: VC generation for @%s: %w", fn.Name, smt.ErrDeadline)
		return out
	}
	out.Points = len(points)
	runCheck(mod, fn, res.Fn, points, copts, budget, deadline, out)
	return out
}

func runCheck(mod *llvmir.Module, fn *llvmir.Function, xfn *vx86.Function,
	points []*core.SyncPoint, copts core.Options, budget Budget, deadline time.Time, out *Outcome) {
	checkStart := time.Now()
	// Term construction during symbolic execution may trip the node budget
	// outside a solver call; treat it as the same out-of-memory outcome.
	defer func() {
		if p := recover(); p != nil {
			if p == smt.ErrNodeBudget {
				out.Class = ClassOOM
				out.Err = smt.ErrNodeBudget
				return
			}
			panic(p)
		}
	}()
	checkSpan := copts.Trace.Start(copts.TraceParent, "tv.check",
		telemetry.Int("points", int64(len(points))))
	if checkSpan != nil {
		copts.TraceParent = checkSpan.ID()
	}
	// With per-worker scratch attached, the term table and the blaster's
	// literal arena reuse the previous function's memory. Resetting here
	// is safe: every term of the previous function is dead by the time
	// its worker starts the next one (certificates encode terms to disk
	// as they are recorded, and reports retain only strings and values).
	var ctx *smt.Context
	if copts.Scratch != nil {
		copts.Scratch.Reset()
		ctx = smt.NewContextWith(copts.Scratch.Terms)
	} else {
		ctx = smt.NewContext()
	}
	ctx.MaxNodes = budget.MaxTermNodes
	solver := smt.NewSolver(ctx)
	solver.ConflictBudget = budget.ConflictBudget
	// The deadline is absolute, computed at pipeline entry, so the SMT
	// phase only gets whatever the earlier phases left of the budget. The
	// checker's symbolic-stepping loop polls the same deadline.
	solver.Deadline = deadline
	// The original wall-clock allowance, alongside the absolute deadline,
	// is what lets the portfolio's escalation ladder gate races on the
	// remaining-budget fraction (see smt.Solver.Budget).
	solver.Budget = budget.Timeout
	// Runs during panic unwinding too (declared after the recover handler,
	// so it fires first): the phase breakdown and span must survive an OOM
	// abort mid-check.
	defer func() {
		out.Phases.Check = time.Since(checkStart)
		out.Phases.SMT = solver.Stats.SolveDuration
		out.SMTStats = solver.Stats
		out.MarkPhase(&out.Mem.Check)
		checkSpan.End()
	}()

	layout := llvmir.BuildLayout(mod, fn)
	left := llvmir.NewSem(ctx, mod, fn, layout)
	right := vx86.NewSem(ctx, xfn, layout)

	ck := core.NewChecker(solver, left, right, copts)
	report, err := ck.Run(points)
	if err != nil {
		out.Err = err
		switch {
		case errors.Is(err, smt.ErrDeadline), errors.Is(err, smt.ErrBudget):
			out.Class = ClassTimeout
		case errors.Is(err, smt.ErrNodeBudget):
			out.Class = ClassOOM
		default:
			out.Class = ClassOther
		}
		return
	}
	out.Report = report
	if report.Verdict == core.Validated {
		out.Class = ClassSucceeded
	} else {
		out.Class = ClassNotValidated
	}
}
