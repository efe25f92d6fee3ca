package proof

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"repro/internal/term"
)

// CheckReport is the outcome of replaying a proof directory.
type CheckReport struct {
	Functions  int            // certificate files checked
	Witnesses  int            // witnesses verified
	Queries    int            // query certificates verified
	Steps      int            // trace steps replayed
	ByKind     map[string]int // verified certificates per kind
	Certified  []string       // functions with a verified witness
	Rejections []string       // empty means the whole directory verified
}

func (r *CheckReport) reject(format string, args ...interface{}) {
	r.Rejections = append(r.Rejections, fmt.Sprintf(format, args...))
}

// certStatus tracks one query certificate through verification.
type certStatus struct {
	QueryCert
	verified bool
}

// fnCerts is the verified certificate set of one function.
type fnCerts struct {
	name string
	byID map[string]*certStatus
	refs []*certStatus
}

// dratCheckpoint is one RUP obligation against a session trace.
type dratCheckpoint struct {
	pos int
	cs  *certStatus
}

// CheckDir verifies every certificate artifact in dir: DRAT traces by
// reverse unit propagation, Sat models by direct term evaluation,
// cache references against the verified certificate with the same
// canonical key in the same function, and bisimulation witnesses for
// structural well-formedness with every cited query verified. The
// returned report lists every rejection; an error is returned only for
// directory-level I/O failures.
//
// Functions are checked on runtime.GOMAXPROCS(0) workers, largest DRAT
// trace first. A worker does all of one function's work — term segment,
// certificates, trace, refs, witness — into its own partial report; the
// partials merge in sorted base order, so the report does not depend on
// the worker count. What follows serially spans functions: no key may be
// verified with two results, every witness needs a certificate file, and
// the manifest must agree.
//
// Verification streams: certificates decode value by value and each
// trace replays in a single forward pass, so peak memory is one
// function's term segment and sessions per worker, not the directory's.
// Artifacts of any other format version — schema-1 headers, text DRAT
// traces, uncompressed JSON — are rejected as unsupported.
func CheckDir(dir string) (*CheckReport, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var jobs []*fnJob
	dratSize := map[string]int64{}
	witnessBases := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, CertsSuffix) {
			jobs = append(jobs, &fnJob{base: strings.TrimSuffix(name, CertsSuffix)})
		}
		if strings.HasSuffix(name, WitnessSuffix) {
			witnessBases[strings.TrimSuffix(name, WitnessSuffix)] = true
		}
		if strings.HasSuffix(name, DratSuffix) {
			if info, err := e.Info(); err == nil {
				dratSize[strings.TrimSuffix(name, DratSuffix)] = info.Size()
			}
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].base < jobs[j].base })
	order := append([]*fnJob(nil), jobs...)
	sort.SliceStable(order, func(i, j int) bool { return dratSize[order[i].base] > dratSize[order[j].base] })
	queue := make(chan *fnJob, len(order)) // holds every job: the sends never block
	for _, j := range order {
		queue <- j
	}
	close(queue)
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(order)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				j.check(dir, witnessBases[j.base])
			}
		}()
	}
	wg.Wait()

	report := &CheckReport{ByKind: make(map[string]int)}
	index := map[string]keyedVerdict{}
	for _, j := range jobs {
		report.merge(&j.rep)
		delete(witnessBases, j.base)
		// Each key verified in this function; conflicting verdicts for
		// one key mean the pipeline contradicted itself — reject loudly.
		for _, k := range j.keys {
			if prev, ok := index[k.key]; ok {
				if prev.result != k.result {
					report.reject("%s: key %s verified %s here but %s at %s",
						k.where, k.key, k.result, prev.result, prev.where)
				}
				continue
			}
			index[k.key] = k
		}
	}
	orphans := make([]string, 0, len(witnessBases))
	for base := range witnessBases {
		orphans = append(orphans, base)
	}
	sort.Strings(orphans)
	for _, base := range orphans {
		report.reject("%s: no certificate file %s", base+WitnessSuffix, base+CertsSuffix)
	}

	// Manifest, when present: every row the run recorded as certified
	// must have a verified witness, and no succeeded row may be silently
	// uncertified.
	manifest, err := ReadManifest(dir)
	if err != nil {
		report.reject("%v", err)
	}
	if manifest != nil {
		certified := map[string]bool{}
		for _, fn := range report.Certified {
			certified[fn] = true
		}
		for _, row := range manifest.Functions {
			if row.Certified && !certified[row.Name] {
				report.reject("manifest: %s recorded as certified but its witness did not verify", row.Name)
			}
			if row.Class == "Succeeded" && !row.Certified {
				report.reject("manifest: %s succeeded but was not certified", row.Name)
			}
		}
	}
	return report, nil
}

// fnJob is one function's check, run by a CheckDir worker into its own
// partial report.
type fnJob struct {
	base string
	rep  CheckReport
	keys []keyedVerdict // one per key verified here, in query-id order
}

// keyedVerdict is a canonical key verified in one function, for the
// cross-function consistency check.
type keyedVerdict struct {
	key, result, where string
}

// check verifies the function at j.base start to finish: its term
// segment, certificates and trace, its ref certificates against its own
// verified keys, and its witness when it has one. The decoded segment
// is dropped when check returns.
func (j *fnJob) check(dir string, hasWitness bool) {
	rep := &j.rep
	rep.ByKind = make(map[string]int)
	loader := loadTermSegmentFile(dir, j.base+TermsSuffix, rep)
	fc := checkFunctionCerts(dir, j.base, loader, rep)
	if fc != nil {
		j.keys = resolveRefs(fc, rep)
	}
	if !hasWitness {
		return
	}
	var wf WitnessFile
	switch {
	case !loadJSON(dir, j.base+WitnessSuffix, &wf, rep):
	case fc == nil:
		rep.reject("%s: witness for %q has no readable certificate file", j.base+WitnessSuffix, wf.Function)
	case FileBase(wf.Function) != j.base:
		// One base per function, so no function is certified twice.
		rep.reject("%s: witness for %q belongs in %s",
			j.base+WitnessSuffix, wf.Function, FileBase(wf.Function)+WitnessSuffix)
	case wf.Function != fc.name:
		rep.reject("%s: witness for %q but %s is for %q",
			j.base+WitnessSuffix, wf.Function, j.base+CertsSuffix, fc.name)
	case wf.Schema != Schema:
		rep.reject("%s: witness has unsupported schema %d", wf.Function, wf.Schema)
	case loader == nil:
		rep.reject("%s: witness but no term segment %s", wf.Function, j.base+TermsSuffix)
	default:
		before := len(rep.Rejections)
		verifyWitness(&wf, fc, loader.Term, rep)
		if len(rep.Rejections) == before {
			rep.Witnesses++
			rep.Certified = append(rep.Certified, wf.Function)
		}
	}
}

// resolveRefs verifies fc's ref certificates against the certificates
// fc itself verified with the same key, and returns those keys for the
// cross-function consistency check, the first certificate of each key
// in query-id order. A ref never resolves in another function.
func resolveRefs(fc *fnCerts, report *CheckReport) []keyedVerdict {
	ids := make([]string, 0, len(fc.byID))
	for id := range fc.byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var keys []keyedVerdict
	index := map[string]keyedVerdict{}
	for _, id := range ids {
		cs := fc.byID[id]
		if !cs.verified || cs.Kind == KindRef || cs.Key == "" {
			continue
		}
		where := fc.name + "/" + id
		if prev, ok := index[cs.Key]; ok {
			if prev.result != cs.Result {
				report.reject("%s: key %s verified %s here but %s at %s",
					where, cs.Key, cs.Result, prev.result, prev.where)
			}
			continue
		}
		k := keyedVerdict{key: cs.Key, result: cs.Result, where: where}
		index[cs.Key] = k
		keys = append(keys, k)
	}
	for _, cs := range fc.refs {
		got, ok := index[cs.Key]
		switch {
		case !ok:
			report.reject("%s/%s: ref to key %s but no verified certificate of %s has that key",
				fc.name, cs.ID, cs.Key, fc.name)
		case got.result != cs.Result:
			report.reject("%s/%s: ref claims %s but key %s verified %s at %s",
				fc.name, cs.ID, cs.Result, cs.Key, got.result, got.where)
		default:
			cs.verified = true
			report.Queries++
			report.ByKind[KindRef]++
		}
	}
	return keys
}

// merge adds a partial report's counts, certified functions and
// rejections to r.
func (r *CheckReport) merge(p *CheckReport) {
	r.Functions += p.Functions
	r.Witnesses += p.Witnesses
	r.Certified = append(r.Certified, p.Certified...)
	r.Queries += p.Queries
	r.Steps += p.Steps
	for k, n := range p.ByKind {
		r.ByKind[k] += n
	}
	r.Rejections = append(r.Rejections, p.Rejections...)
}

func loadJSON(dir, name string, v interface{}, report *CheckReport) bool {
	raw, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		report.reject("%s: %v", name, err)
		return false
	}
	zr, err := inflate(bytes.NewReader(raw))
	if err != nil {
		report.reject("%s: %v", name, err)
		return false
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		report.reject("%s: bad compressed data: %v", name, err)
		return false
	}
	if err := json.Unmarshal(data, v); err != nil {
		report.reject("%s: bad JSON: %v", name, err)
		return false
	}
	return true
}

// loadTermSegmentFile reads one function's term segment, if present.
// Absence is rejected only where a certificate or witness needs a term:
// a function whose certificates are all trace-backed verifies without.
func loadTermSegmentFile(dir, name string, report *CheckReport) *termLoader {
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		if !os.IsNotExist(err) {
			report.reject("%s: %v", name, err)
		}
		return nil
	}
	defer f.Close()
	zr, err := inflate(f)
	if err != nil {
		report.reject("%s: %v", name, err)
		return nil
	}
	sc := bufio.NewScanner(zr)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	var nodes []TNode
	ln := 0
	for sc.Scan() {
		ln++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var n TNode
		if err := json.Unmarshal(line, &n); err != nil {
			report.reject("%s line %d: %v", name, ln, err)
			return nil
		}
		nodes = append(nodes, n)
	}
	if err := sc.Err(); err != nil {
		report.reject("%s: %v", name, err)
		return nil
	}
	return newTermLoader(nodes)
}

// verifyQueryKind performs the trace-independent verification of one
// query certificate: trivial and simplified certificates re-read the
// decoded term, model certificates re-evaluate the recorded assignment,
// refs are queued for resolution once the function's other
// certificates are verified. It returns true when the
// certificate is a DRAT obligation the caller must discharge against
// the session trace.
func verifyQueryKind(fc *fnCerts, cs *certStatus, termOf func(*certStatus) *term.Term, report *CheckReport) bool {
	if cs.Result != ResSat && cs.Result != ResUnsat {
		report.reject("%s/%s: bad result %q", fc.name, cs.ID, cs.Result)
		return false
	}
	switch cs.Kind {
	case KindTrivial:
		t := termOf(cs)
		if t == nil {
			return false
		}
		want := cs.Result == ResSat
		if t.Kind != term.KConstBool || (t.Val == 1) != want {
			report.reject("%s/%s: trivial certificate term is not the constant %v", fc.name, cs.ID, want)
			return false
		}
		cs.verified = true
	case KindSimplified:
		// The verdict came from the (trusted) simplification pipeline;
		// the checker validates shape only and counts these separately.
		t := termOf(cs)
		if t == nil {
			return false
		}
		if t.SortKind() != term.SortBool {
			report.reject("%s/%s: simplified certificate term is not Bool-sorted", fc.name, cs.ID)
			return false
		}
		cs.verified = true
	case KindModel:
		t := termOf(cs)
		if t == nil {
			return false
		}
		if cs.Result != ResSat {
			report.reject("%s/%s: model certificate with result %s", fc.name, cs.ID, cs.Result)
			return false
		}
		if cs.Model == nil {
			report.reject("%s/%s: model certificate without model", fc.name, cs.ID)
			return false
		}
		a, err := AssignFromModel(cs.Model)
		if err != nil {
			report.reject("%s/%s: %v", fc.name, cs.ID, err)
			return false
		}
		v, err := a.EvalBool(t)
		if err != nil {
			report.reject("%s/%s: model evaluation failed: %v", fc.name, cs.ID, err)
			return false
		}
		if !v {
			report.reject("%s/%s: recorded model does not satisfy the term", fc.name, cs.ID)
			return false
		}
		cs.verified = true
	case KindDRAT:
		if cs.Result != ResUnsat {
			report.reject("%s/%s: drat certificate with result %s", fc.name, cs.ID, cs.Result)
			return false
		}
		return true
	case KindRef:
		if cs.Key == "" {
			report.reject("%s/%s: ref certificate without key", fc.name, cs.ID)
			return false
		}
		fc.refs = append(fc.refs, cs)
		return false // resolved by resolveRefs
	default:
		report.reject("%s/%s: unknown certificate kind %q", fc.name, cs.ID, cs.Kind)
		return false
	}
	if cs.verified {
		report.Queries++
		report.ByKind[cs.Kind]++
	}
	return false
}

// certValue is one JSON value of a certs stream after the header:
// either a query certificate or the session-metadata trailer.
type certValue struct {
	QueryCert
	Sessions []SessionInfo `json:"sessions"`
}

// checkFunctionCerts verifies one function's certificate stream plus its
// DRAT companion and returns the per-query status map (nil when the
// file itself is unreadable or of an unsupported schema). Query
// certificates decode one value at a time, terms resolve against the
// term segment, and the binary DRAT trace replays in one forward pass.
func checkFunctionCerts(dir, base string, loader *termLoader, report *CheckReport) *fnCerts {
	f, err := os.Open(filepath.Join(dir, base+CertsSuffix))
	if err != nil {
		report.reject("%s: %v", base+CertsSuffix, err)
		return nil
	}
	defer f.Close()
	zr, err := inflate(f)
	if err != nil {
		report.reject("%s: %v", base+CertsSuffix, err)
		return nil
	}
	dec := json.NewDecoder(zr)
	var head certsHeader
	if err := dec.Decode(&head); err != nil {
		report.reject("%s: bad JSON: %v", base+CertsSuffix, err)
		return nil
	}
	report.Functions++
	if head.Schema != Schema {
		report.reject("%s: unsupported schema %d", base+CertsSuffix, head.Schema)
		return nil
	}
	fc := &fnCerts{name: head.Function, byID: make(map[string]*certStatus)}
	termOf := func(cs *certStatus) *term.Term {
		if loader == nil {
			report.reject("%s/%s: no term segment %s", fc.name, cs.ID, base+TermsSuffix)
			return nil
		}
		t, err := loader.Term(cs.Term)
		if err != nil {
			report.reject("%s/%s: %v", fc.name, cs.ID, err)
			return nil
		}
		return t
	}
	bySess := map[int][]dratCheckpoint{}
	for {
		var v certValue
		err := dec.Decode(&v)
		if err == io.EOF {
			break
		}
		if err != nil {
			report.reject("%s: bad JSON value: %v", base+CertsSuffix, err)
			break
		}
		if v.Sessions != nil {
			continue // session variable maps; informational
		}
		cs := &certStatus{QueryCert: v.QueryCert}
		if _, dup := fc.byID[cs.ID]; dup {
			report.reject("%s: duplicate query id %s", fc.name, cs.ID)
			continue
		}
		fc.byID[cs.ID] = cs
		if verifyQueryKind(fc, cs, termOf, report) {
			if cs.Sess < 0 {
				report.reject("%s/%s: session %d not in trace", fc.name, cs.ID, cs.Sess)
				continue
			}
			bySess[cs.Sess] = append(bySess[cs.Sess], dratCheckpoint{pos: cs.Pos, cs: cs})
		}
	}
	replayDrat(dir, base, fc, bySess, report)
	return fc
}

// replayDrat walks the binary trace once, maintaining one RUP
// checker per session — sessions interleave in a streaming trace — and
// discharging each obligation when its session reaches the recorded
// position.
func replayDrat(dir, base string, fc *fnCerts, bySess map[int][]dratCheckpoint, report *CheckReport) {
	type sessState struct {
		ck     *SessionChecker
		cps    []dratCheckpoint
		next   int
		pos    int
		broken bool
	}
	states := map[int]*sessState{}
	for si, cps := range bySess {
		sort.SliceStable(cps, func(i, j int) bool { return cps[i].pos < cps[j].pos })
		states[si] = &sessState{ck: NewSessionChecker(), cps: cps}
	}
	discharge := func(ss *sessState) {
		for ss.next < len(ss.cps) && ss.cps[ss.next].pos == ss.pos {
			cp := ss.cps[ss.next]
			ss.next++
			if err := ss.ck.CheckFinal(int32Slice(cp.cs.Final)); err != nil {
				report.reject("%s/%s: %v", fc.name, cp.cs.ID, err)
				continue
			}
			cp.cs.verified = true
			report.Queries++
			report.ByKind[KindDRAT]++
		}
	}
	df, err := os.Open(filepath.Join(dir, base+DratSuffix))
	if err != nil && !os.IsNotExist(err) {
		report.reject("%s: %v", base+DratSuffix, err)
	}
	if err == nil {
		werr := WalkDrat(df, func(si int, op byte, lits []int32) error {
			ss := states[si]
			if ss == nil {
				ss = &sessState{ck: NewSessionChecker()}
				states[si] = ss
			}
			if ss.broken {
				return nil // obligations already rejected; skip the rest
			}
			discharge(ss)
			report.Steps++
			var serr error
			switch op {
			case OpInput:
				serr = ss.ck.AddInput(lits)
			case OpLearn:
				serr = ss.ck.AddLearnt(lits)
			case OpDelete:
				serr = ss.ck.Delete(lits)
			}
			if serr != nil {
				report.reject("%s: session %d step %d: %v", fc.name, si, ss.pos, serr)
				ss.broken = true
				for ; ss.next < len(ss.cps); ss.next++ {
					report.reject("%s/%s: unverifiable, trace broken at step %d",
						fc.name, ss.cps[ss.next].cs.ID, ss.pos)
				}
				return nil
			}
			ss.pos++
			return nil
		})
		df.Close()
		if werr != nil {
			report.reject("%s: %v", base+DratSuffix, werr)
		}
	}
	sis := make([]int, 0, len(states))
	for si := range states {
		sis = append(sis, si)
	}
	sort.Ints(sis)
	for _, si := range sis {
		ss := states[si]
		if ss.broken {
			continue
		}
		discharge(ss)
		for ; ss.next < len(ss.cps); ss.next++ {
			report.reject("%s/%s: position %d beyond end of session %d (%d steps)",
				fc.name, ss.cps[ss.next].cs.ID, ss.cps[ss.next].pos, si, ss.pos)
		}
	}
}

func int32Slice(v []int) []int32 {
	out := make([]int32, len(v))
	for i, x := range v {
		out[i] = int32(x)
	}
	return out
}

// verifyWitness checks the structural well-formedness of a bisimulation
// witness: entry and exit points present, every non-exiting point
// explored, every cut successor covered by a pair, and every pair's
// obligations discharged by verified certificates. termAt resolves path
// conditions against the term segment.
func verifyWitness(wf *WitnessFile, fc *fnCerts, termAt func(int) (*term.Term, error), report *CheckReport) {
	name := wf.Function
	if wf.Mode != "equivalence" && wf.Mode != "refinement" {
		report.reject("%s: witness has unknown mode %q", name, wf.Mode)
		return
	}

	cert := func(qid, role string) *certStatus {
		cs, ok := fc.byID[qid]
		if !ok {
			report.reject("%s: %s cites unknown query %q", name, role, qid)
			return nil
		}
		if !cs.verified {
			report.reject("%s: %s cites unverified query %s", name, role, qid)
			return nil
		}
		return cs
	}
	requireResult := func(qid, role, want string) bool {
		cs := cert(qid, role)
		if cs == nil {
			return false
		}
		if cs.Result != want {
			report.reject("%s: %s cites query %s with result %s, need %s", name, role, qid, cs.Result, want)
			return false
		}
		return true
	}

	points := map[string]PointInfo{}
	entries, exits, nonExiting := 0, 0, 0
	for _, p := range wf.Points {
		if _, dup := points[p.ID]; dup {
			report.reject("%s: duplicate sync point %s", name, p.ID)
			return
		}
		points[p.ID] = p
		if p.Exiting {
			exits++
		} else {
			nonExiting++
			if p.Left == "entry" {
				entries++
			}
		}
	}
	if entries == 0 {
		report.reject("%s: witness has no entry sync point", name)
	}
	if exits == 0 {
		report.reject("%s: witness has no exiting sync point", name)
	}

	checked := map[string]bool{}
	for ci := range wf.Checked {
		cp := &wf.Checked[ci]
		p, ok := points[cp.Point]
		if !ok {
			report.reject("%s: checked record for unknown point %q", name, cp.Point)
			continue
		}
		if p.Exiting {
			report.reject("%s: checked record for exiting point %s", name, cp.Point)
			continue
		}
		if checked[cp.Point] {
			report.reject("%s: duplicate checked record for point %s", name, cp.Point)
			continue
		}
		checked[cp.Point] = true

		role := func(what string, i int) string {
			return fmt.Sprintf("point %s %s %d", cp.Point, what, i)
		}
		okSucc := func(side string, succs []SuccState) bool {
			for i, s := range succs {
				pc, err := termAt(s.PC)
				if err != nil {
					report.reject("%s: %s: %v", name, role(side, i), err)
					return false
				}
				if s.FeasQ == "" {
					if pc.Kind != term.KConstBool || pc.Val != 1 {
						report.reject("%s: %s has no feasibility query and a non-trivial path condition",
							name, role(side, i))
						return false
					}
				} else if !requireResult(s.FeasQ, role(side+" successor", i), ResSat) {
					return false
				}
			}
			return true
		}
		if !okSucc("left successor", cp.Left) || !okSucc("right successor", cp.Right) {
			continue
		}
		for i, pr := range cp.PrunedLeft {
			if pr.Q != "" {
				requireResult(pr.Q, role("pruned left", i), ResUnsat)
			}
		}
		for i, pr := range cp.PrunedRight {
			if pr.Q != "" {
				requireResult(pr.Q, role("pruned right", i), ResUnsat)
			}
		}

		leftErrors := false
		for _, s := range cp.Left {
			if s.Error != "" {
				leftErrors = true
			}
		}

		coveredL := make([]bool, len(cp.Left))
		coveredR := make([]bool, len(cp.Right))
		for pi, pair := range cp.Pairs {
			prole := fmt.Sprintf("point %s pair %d", cp.Point, pi)
			if pair.L < 0 || pair.L >= len(cp.Left) || pair.R < 0 || pair.R >= len(cp.Right) {
				report.reject("%s: %s references successors out of range", name, prole)
				continue
			}
			okPair := false
			switch pair.How {
			case HowExcuse:
				// Left UB excuses any overlapping right behavior (§4.6):
				// the left successor must be an error state and the overlap
				// of the two path conditions satisfiable.
				if cp.Left[pair.L].Error == "" {
					report.reject("%s: %s claims UB excuse but the left successor is not an error state", name, prole)
					break
				}
				if len(pair.PairQs) != 1 {
					report.reject("%s: %s excuse needs exactly one overlap query", name, prole)
					break
				}
				okPair = requireResult(pair.PairQs[0], prole+" overlap", ResSat)
			case HowFastPath:
				// Syntactic path-condition equality: valid only when both
				// pcs decode to the same node and no left error state could
				// widen the excuse disjunction.
				if cp.Left[pair.L].PC != cp.Right[pair.R].PC {
					report.reject("%s: %s claims syntactic pc equality but the conditions differ", name, prole)
					break
				}
				if leftErrors {
					report.reject("%s: %s fast path invalid: left error successors present", name, prole)
					break
				}
				okPair = verifySyncPair(wf, fc, points, cp, pair, prole, name, report, requireResult)
			case HowQueries:
				if len(pair.PairQs) != 2 {
					report.reject("%s: %s needs two pairing queries", name, prole)
					break
				}
				if !requireResult(pair.PairQs[0], prole+" pairing", ResUnsat) ||
					!requireResult(pair.PairQs[1], prole+" pairing", ResUnsat) {
					break
				}
				okPair = verifySyncPair(wf, fc, points, cp, pair, prole, name, report, requireResult)
			default:
				report.reject("%s: %s has unknown kind %q", name, prole, pair.How)
			}
			if okPair {
				coveredL[pair.L] = true
				coveredR[pair.R] = true
			}
		}
		for i, c := range coveredL {
			if !c {
				report.reject("%s: point %s left successor %d (%s) is not covered by any pair",
					name, cp.Point, i, cp.Left[i].Loc)
			}
		}
		if wf.Mode == "equivalence" {
			for i, c := range coveredR {
				if !c {
					report.reject("%s: point %s right successor %d (%s) is not covered by any pair",
						name, cp.Point, i, cp.Right[i].Loc)
				}
			}
		}
	}

	for _, p := range wf.Points {
		if !p.Exiting && !checked[p.ID] {
			report.reject("%s: non-exiting point %s has no checked record", name, p.ID)
		}
	}
}

// verifySyncPair checks the sync-point citation and obligation query of
// a queries/fastpath pair.
func verifySyncPair(wf *WitnessFile, fc *fnCerts, points map[string]PointInfo,
	cp *CheckedPoint, pair PairWitness, prole, name string, report *CheckReport,
	requireResult func(qid, role, want string) bool) bool {
	q, ok := points[pair.Sync]
	if !ok {
		report.reject("%s: %s cites unknown sync point %q", name, prole, pair.Sync)
		return false
	}
	if q.Left != cp.Left[pair.L].Loc || q.Right != cp.Right[pair.R].Loc {
		report.reject("%s: %s sync point %s is at (%s,%s) but the successors are at (%s,%s)",
			name, prole, pair.Sync, q.Left, q.Right, cp.Left[pair.L].Loc, cp.Right[pair.R].Loc)
		return false
	}
	if pair.ObligQ == "" {
		report.reject("%s: %s has no obligation query", name, prole)
		return false
	}
	return requireResult(pair.ObligQ, prole+" obligation", ResUnsat)
}
