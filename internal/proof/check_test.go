package proof_test

// End-to-end tests of the certificate chain: a real corpus run emits
// certificates and witnesses, the independent checker verifies them with
// zero rejections, and targeted tampering with every artifact class —
// DRAT clauses, witness pairs, Sat models — must be caught. The final
// test pins the trust-base claim: cmd/proofcheck must never link the SAT
// or SMT solver.

import (
	"bytes"
	"compress/flate"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/harness"
	"repro/internal/isel"
	"repro/internal/llvmir"
	"repro/internal/proof"
	"repro/internal/tv"
	"repro/internal/vcgen"
)

var (
	e2eOnce sync.Once
	e2eDir  string
	e2eSum  *harness.Summary
	e2eErr  error
)

// e2eConfig is the corpus configuration of the cached proof run.
func e2eConfig(dir string) harness.Config {
	return harness.Config{
		Profile:  corpus.GCCLike(8),
		Budget:   tv.Budget{MaxTermNodes: 3_000_000},
		Workers:  2,
		ProofDir: dir,
	}
}

// emitProofDir runs a small corpus once with proof emission on and
// caches the directory for every test in this file.
func emitProofDir(t testing.TB) (string, *harness.Summary) {
	t.Helper()
	e2eOnce.Do(func() {
		dir, err := os.MkdirTemp("", "proofdir")
		if err != nil {
			e2eErr = err
			return
		}
		e2eDir = dir
		e2eSum = harness.Run(e2eConfig(dir))
		e2eErr = e2eSum.ProofErr
	})
	if e2eErr != nil {
		t.Fatal(e2eErr)
	}
	return e2eDir, e2eSum
}

func TestMain(m *testing.M) {
	code := m.Run()
	if e2eDir != "" {
		os.RemoveAll(e2eDir)
	}
	os.Exit(code)
}

// copyProofDir clones the emitted proof directory so tamper tests can
// mutate their own copy.
func copyProofDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		out.Close()
	}
	return dst
}

// TestEndToEndProofsVerify is the pipeline acceptance test: corpus run →
// emitted certificates → CheckDir with zero rejections, and the run must
// actually exercise the interesting certificate kinds and Sat-model
// reuse.
func TestEndToEndProofsVerify(t *testing.T) {
	dir, sum := emitProofDir(t)
	report, err := proof.CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rejections) != 0 {
		t.Fatalf("%d rejections, first: %s", len(report.Rejections), report.Rejections[0])
	}
	if report.Functions != 8 {
		t.Fatalf("checked %d functions, want 8", report.Functions)
	}
	if report.Witnesses == 0 || report.Witnesses != sum.Certified {
		t.Fatalf("verified %d witnesses, harness certified %d", report.Witnesses, sum.Certified)
	}
	for _, kind := range []string{proof.KindDRAT, proof.KindModel} {
		if report.ByKind[kind] == 0 {
			t.Errorf("corpus run produced no %q certificates — test corpus too small to be meaningful", kind)
		}
	}
	if report.Queries != int(sum.SMTStats.Certificates) {
		t.Errorf("checker saw %d query certs, solver recorded %d", report.Queries, sum.SMTStats.Certificates)
	}
	// Sat answers reused from a recent query's model are certified as
	// ordinary models; the zero-rejection check above covers them.
	if sum.SMTStats.ModelHits == 0 {
		t.Error("no query was answered by a reused Sat model — the run does not exercise model reuse")
	}
}

// findFile returns a file in dir with the given suffix for which accept
// (on its contents) returns true.
func findFile(t *testing.T, dir, suffix string, accept func([]byte) bool) (string, []byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), suffix) {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if accept == nil || accept(data) {
			return path, data
		}
	}
	t.Fatalf("no %s file matching predicate in %s", suffix, dir)
	return "", nil
}

// inflate undoes the compressed-JSON container ("BJSN" magic, version
// byte, DEFLATE body); anything else, or a broken body, comes back nil
// (predicates treat that as a non-match).
func inflate(data []byte) []byte {
	if len(data) < 5 || string(data[:4]) != "BJSN" {
		return nil
	}
	out, err := io.ReadAll(flate.NewReader(bytes.NewReader(data[5:])))
	if err != nil {
		return nil
	}
	return out
}

// deflate re-wraps tampered JSON in the container, so the checker takes
// the same decode path it takes on untampered artifacts.
func deflate(t *testing.T, data []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.WriteString("BJSN\x01")
	fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dratStep is one decoded trace step, for tamper tests that re-encode.
type dratStep struct {
	sess int
	op   byte
	lits []int32
}

// decodeDrat decodes a binary .drat file into its step list,
// returning nil on any decode error.
func decodeDrat(data []byte) []dratStep {
	var steps []dratStep
	err := proof.WalkDrat(bytes.NewReader(data), func(sess int, op byte, lits []int32) error {
		steps = append(steps, dratStep{sess, op, append([]int32(nil), lits...)})
		return nil
	})
	if err != nil {
		return nil
	}
	return steps
}

// TestTamperedDRATClauseRejected flips a literal inside a learnt clause
// of a binary DRAT trace and re-encodes it — a well-formed container
// whose RUP obligation no longer holds; the replay must reject the
// session and the certificates pointing into it. Not every flip breaks
// RUP (an inprocessing step may learn a clause the database already
// implies with either polarity), so the fixture is the first learnt step
// whose flipped clause is not RUP where it stands, found by replaying
// the trace prefix as the checker does.
func TestTamperedDRATClauseRejected(t *testing.T) {
	src, _ := emitProofDir(t)
	dir := copyProofDir(t, src)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var path string
	var steps []dratStep
	at := -1
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), proof.DratSuffix) {
			continue
		}
		path = filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		steps = decodeDrat(data)
		finals := dratFinals(t, strings.TrimSuffix(path, proof.DratSuffix)+proof.CertsSuffix)
		if at = nonRUPFlip(t, steps, finals); at >= 0 {
			break
		}
	}
	if at < 0 {
		t.Fatal("no learnt step whose flipped clause is not RUP in any trace")
	}
	steps[at].lits[0] = -steps[at].lits[0]
	var buf bytes.Buffer
	bw := proof.NewBinWriter(&buf)
	for _, s := range steps {
		if err := bw.Step(s.sess, s.op, s.lits); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	report, err := proof.CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rejections) == 0 {
		t.Fatalf("tampered DRAT clause (step %d) in %s was not rejected", at, filepath.Base(path))
	}
}

// dratCheckpoint is one Unsat obligation: after pos steps of session
// sess the checker proves final and installs it as a lemma.
type dratCheckpoint struct {
	sess, pos int
	final     []int32
}

// dratFinals reads the DRAT obligations of a certs file, in file order.
func dratFinals(t testing.TB, certsPath string) []dratCheckpoint {
	t.Helper()
	data, err := os.ReadFile(certsPath)
	if err != nil {
		t.Fatal(err)
	}
	var cps []dratCheckpoint
	for _, raw := range certValues(inflate(data)) {
		var q proof.QueryCert
		if json.Unmarshal(raw, &q) != nil || q.Kind != proof.KindDRAT {
			continue
		}
		cp := dratCheckpoint{sess: q.Sess, pos: q.Pos}
		for _, l := range q.Final {
			cp.final = append(cp.final, int32(l))
		}
		cps = append(cps, cp)
	}
	return cps
}

// nonRUPFlip returns the index of the first learnt step of steps whose
// clause, with its first literal negated, is not RUP against the clauses
// live at that step, or -1. Each candidate replays its session's prefix
// into a fresh checker — input, learnt and deleted steps, plus every
// obligation discharged on the way — exactly as the directory checker
// does, so a probe never leaves an extra clause behind.
func nonRUPFlip(t *testing.T, steps []dratStep, finals []dratCheckpoint) int {
	t.Helper()
	for i, c := range steps {
		if c.op != proof.OpLearn || len(c.lits) == 0 {
			continue
		}
		ck := proof.NewSessionChecker()
		pos := 0
		discharge := func() {
			for _, cp := range finals {
				if cp.sess == c.sess && cp.pos == pos {
					if err := ck.CheckFinal(cp.final); err != nil {
						t.Fatalf("untampered obligation at session %d position %d: %v", cp.sess, pos, err)
					}
				}
			}
		}
		for _, s := range steps[:i] {
			if s.sess != c.sess {
				continue
			}
			discharge()
			var err error
			switch s.op {
			case proof.OpInput:
				err = ck.AddInput(s.lits)
			case proof.OpLearn:
				err = ck.AddLearnt(s.lits)
			case proof.OpDelete:
				err = ck.Delete(s.lits)
			}
			if err != nil {
				t.Fatalf("untampered step in session %d: %v", s.sess, err)
			}
			pos++
		}
		discharge()
		flipped := append([]int32{-c.lits[0]}, c.lits[1:]...)
		if ck.AddLearnt(flipped) != nil {
			return i
		}
	}
	return -1
}

// TestTamperedDRATByteFlipRejected flips a raw byte inside the
// compressed body of a binary DRAT trace; the checker must report the
// broken file rather than silently verifying a truncated prefix.
func TestTamperedDRATByteFlipRejected(t *testing.T) {
	src, _ := emitProofDir(t)
	dir := copyProofDir(t, src)
	path, data := findFile(t, dir, proof.DratSuffix, func(b []byte) bool {
		return len(b) > 64 && len(decodeDrat(b)) > 0
	})
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	report, err := proof.CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rejections) == 0 {
		t.Fatalf("byte-flipped DRAT file %s was not rejected", filepath.Base(path))
	}
}

// TestTamperedWitnessPairRejected drops one blackened pair from a
// bisimulation witness; the coverage check must reject the witness.
func TestTamperedWitnessPairRejected(t *testing.T) {
	src, _ := emitProofDir(t)
	dir := copyProofDir(t, src)
	path, data := findFile(t, dir, proof.WitnessSuffix, func(b []byte) bool {
		var w proof.WitnessFile
		if err := json.Unmarshal(inflate(b), &w); err != nil {
			return false
		}
		for _, cp := range w.Checked {
			if len(cp.Pairs) > 0 {
				return true
			}
		}
		return false
	})
	var w proof.WitnessFile
	if err := json.Unmarshal(inflate(data), &w); err != nil {
		t.Fatal(err)
	}
	for i := range w.Checked {
		if len(w.Checked[i].Pairs) > 0 {
			w.Checked[i].Pairs = w.Checked[i].Pairs[1:]
			break
		}
	}
	out, err := json.Marshal(&w)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, deflate(t, out), 0o644); err != nil {
		t.Fatal(err)
	}
	report, err := proof.CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rejections) == 0 {
		t.Fatalf("witness %s with a dropped sync pair was not rejected", filepath.Base(path))
	}
}

// TestUnknownContainerVersionRejected bumps the version byte of a
// compressed certs container; the checker must report an unsupported
// version, not attempt to parse the DEFLATE body as JSON.
func TestUnknownContainerVersionRejected(t *testing.T) {
	src, _ := emitProofDir(t)
	dir := copyProofDir(t, src)
	path, data := findFile(t, dir, proof.CertsSuffix, func(b []byte) bool {
		return len(b) > 5 && string(b[:4]) == "BJSN"
	})
	data[4] = 99
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	report, err := proof.CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range report.Rejections {
		if strings.Contains(r, "unsupported compressed-JSON container version") {
			found = true
		}
	}
	if !found {
		t.Fatalf("future container version was not rejected as such; rejections: %v", report.Rejections)
	}
}

// TestRetiredFormatRejected starts from a copy of the emitted directory
// and rewrites two functions into the retired schema-1 shapes: one
// witness as its plain (uncontainered) JSON, and one certs header as
// "schema":1. The checker must reject both functions as unsupported
// rather than verify either.
func TestRetiredFormatRejected(t *testing.T) {
	src, _ := emitProofDir(t)
	dir := copyProofDir(t, src)

	wpath, wdata := findFile(t, dir, proof.WitnessSuffix, nil)
	plain := inflate(wdata)
	var w proof.WitnessFile
	if err := json.Unmarshal(plain, &w); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wpath, plain, 0o644); err != nil {
		t.Fatal(err)
	}

	// A different function's certs, so each rejection names its own.
	cpath, cdata := findFile(t, dir, proof.CertsSuffix, func(b []byte) bool {
		vals := certValues(inflate(b))
		return len(vals) > 0 && !bytes.Contains(vals[0], []byte(strconv.Quote(w.Function)))
	})
	vals := certValues(inflate(cdata))
	var head map[string]interface{}
	if err := json.Unmarshal(vals[0], &head); err != nil {
		t.Fatal(err)
	}
	cfn, _ := head["function"].(string)
	head["schema"] = 1
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(head); err != nil {
		t.Fatal(err)
	}
	for _, raw := range vals[1:] {
		if err := enc.Encode(raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(cpath, deflate(t, buf.Bytes()), 0o644); err != nil {
		t.Fatal(err)
	}

	report, err := proof.CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []struct{ file, fn string }{
		{filepath.Base(wpath), w.Function},
		{filepath.Base(cpath), cfn},
	} {
		found := false
		for _, r := range report.Rejections {
			if strings.HasPrefix(r, want.file+":") && strings.Contains(r, "unsupported") {
				found = true
			}
		}
		if !found {
			t.Errorf("%s (%s) was not rejected as unsupported; rejections: %v", want.file, want.fn, report.Rejections)
		}
		for _, fn := range report.Certified {
			if fn == want.fn {
				t.Errorf("%s still certified after its %s was rewritten to schema 1", fn, want.file)
			}
		}
	}
}

// certValues splits a certs file (a stream of concatenated
// JSON values) into its raw values, or nil when the stream is malformed.
func certValues(data []byte) []json.RawMessage {
	dec := json.NewDecoder(bytes.NewReader(data))
	var vals []json.RawMessage
	for {
		var raw json.RawMessage
		err := dec.Decode(&raw)
		if err == io.EOF {
			return vals
		}
		if err != nil {
			return nil
		}
		vals = append(vals, raw)
	}
}

// TestTamperedModelRejected corrupts a Sat model value in a streamed
// certificate file; re-evaluating the term DAG under the broken model
// must fail.
func TestTamperedModelRejected(t *testing.T) {
	src, _ := emitProofDir(t)
	dir := copyProofDir(t, src)
	hasModel := func(b []byte) bool {
		for _, raw := range certValues(inflate(b)) {
			var q proof.QueryCert
			if json.Unmarshal(raw, &q) != nil {
				continue
			}
			if q.Kind == proof.KindModel && q.Model != nil && len(q.Model.BV) > 0 {
				return true
			}
		}
		return false
	}
	path, data := findFile(t, dir, proof.CertsSuffix, hasModel)
	vals := certValues(inflate(data))
	tampered := 0
	for i, raw := range vals {
		var q proof.QueryCert
		if json.Unmarshal(raw, &q) != nil {
			continue
		}
		if q.Kind != proof.KindModel || q.Model == nil || len(q.Model.BV) == 0 {
			continue
		}
		// Flipping the low bit of every bitvector assignment breaks at
		// least one model in the file (a model where no variable matters
		// would have been a trivial certificate instead). Tamper all of
		// them so the test does not depend on which query is load-bearing.
		for j := range q.Model.BV {
			v, err := strconv.ParseUint(q.Model.BV[j].Val, 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			q.Model.BV[j].Val = strconv.FormatUint(v^1, 10)
		}
		out, err := json.Marshal(&q)
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = out
		tampered++
	}
	if tampered == 0 {
		t.Fatal("no model certificate found to tamper with")
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, raw := range vals {
		if err := enc.Encode(raw); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, deflate(t, buf.Bytes()), 0o644); err != nil {
		t.Fatal(err)
	}
	report, err := proof.CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rejections) == 0 {
		t.Fatalf("tampered models in %s were not rejected", filepath.Base(path))
	}
}

// proofDirSize sums the artifact files of a proof directory — everything
// ProofBytes accounts for, i.e. all files except the manifest.
func proofDirSize(t *testing.T, dir string) int64 {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, e := range entries {
		if e.Name() == proof.ManifestName {
			continue
		}
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return total
}

// TestProofBytesMatchesDisk pins the ProofBytes fix: the stat must count
// bytes actually written to disk.
func TestProofBytesMatchesDisk(t *testing.T) {
	dir, sum := emitProofDir(t)
	if got, want := sum.SMTStats.ProofBytes, proofDirSize(t, dir); got != want {
		t.Errorf("ProofBytes = %d, on-disk artifacts = %d", got, want)
	}
}

// TestScratchParity pins the arena's behavioral neutrality: the pool
// run, whose workers reuse one scratch arena across functions, must
// produce the same per-row classes as direct tv.Validate calls with no
// scratch over the identical corpus.
func TestScratchParity(t *testing.T) {
	_, sum := emitProofDir(t)
	cfg := e2eConfig("")
	fns := corpus.Generate(cfg.Profile)
	if len(fns) != len(sum.Rows) {
		t.Fatalf("row counts differ: pool %d, corpus %d", len(sum.Rows), len(fns))
	}
	for i, f := range fns {
		mod, err := llvmir.Parse(f.Src)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		out := tv.Validate(mod, f.Name, isel.Options{}, vcgen.Options{}, core.Options{}, cfg.Budget)
		if out.Class != sum.Rows[i].Class {
			t.Errorf("row %d (%s): pool with scratch %s, direct without scratch %s",
				i, f.Name, sum.Rows[i].Class, out.Class)
		}
	}
}

// TestMemTelemetryRecorded pins the mem.* series: a corpus run must
// record per-phase allocation histograms for every function.
func TestMemTelemetryRecorded(t *testing.T) {
	_, sum := emitProofDir(t)
	for _, name := range []string{"mem.parse", "mem.isel", "mem.vcgen", "mem.check", "mem.peak"} {
		if sum.Metrics.Hist(name).Count == 0 {
			t.Errorf("no %s observations recorded", name)
		}
	}
}

// TestProofcheckImportConstraint pins the trust-base claim with the build
// graph itself: of this module's packages, cmd/proofcheck may link only
// the certificate package, the term language, and — for -store mode —
// the result store's entry decoder with the telemetry package it
// imports. Never the SAT solver, the SMT facade, or the checker that
// produced the certificates.
func TestProofcheckImportConstraint(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not in PATH")
	}
	out, err := exec.Command(goBin, "list", "-deps", "repro/cmd/proofcheck").CombinedOutput()
	if err != nil {
		t.Fatalf("go list -deps: %v\n%s", err, out)
	}
	allowed := map[string]bool{
		"repro/cmd/proofcheck":     true,
		"repro/internal/proof":     true,
		"repro/internal/term":      true,
		"repro/internal/store":     true,
		"repro/internal/telemetry": true,
	}
	sawProof := false
	for _, d := range strings.Fields(string(out)) {
		if d == "repro/internal/proof" {
			sawProof = true
		}
		if (d == "repro" || strings.HasPrefix(d, "repro/")) && !allowed[d] {
			t.Errorf("cmd/proofcheck links %s — outside the trust base", d)
		}
	}
	if !sawProof {
		t.Fatal("proofcheck does not depend on repro/internal/proof — wrong package listed?")
	}
}

// TestRetiredSharedSegmentRejected pins the one term-segment layout:
// a function's term ids resolve only against its own <base>.terms.jsonl.
// Renaming one function's segment to the retired run-wide TERMS.jsonl
// must reject that function's term-backed certificates and its witness,
// naming the missing segment, while every other function still
// verifies.
func TestRetiredSharedSegmentRejected(t *testing.T) {
	src, _ := emitProofDir(t)
	before, err := proof.CheckDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := copyProofDir(t, src)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Pick a certified function whose certificates no other function
	// cites by reference, so its rejection cannot spread.
	owner := map[string]string{} // certificate key → function
	cited := map[string]bool{}   // functions owning a key another cites
	var refs [][2]string         // (function, key) of each ref certificate
	var bases []string
	for _, e := range entries {
		base, ok := strings.CutSuffix(e.Name(), proof.CertsSuffix)
		if !ok {
			continue
		}
		bases = append(bases, base)
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, raw := range certValues(inflate(data)) {
			var q proof.QueryCert
			if json.Unmarshal(raw, &q) != nil || q.Key == "" {
				continue
			}
			if q.Kind == proof.KindRef {
				refs = append(refs, [2]string{base, q.Key})
			} else if _, ok := owner[q.Key]; !ok {
				owner[q.Key] = base
			}
		}
	}
	for _, r := range refs {
		if fn := owner[r[1]]; fn != r[0] {
			cited[fn] = true
		}
	}
	victim := ""
	for _, base := range bases {
		if _, err := os.Stat(filepath.Join(dir, base+proof.WitnessSuffix)); err == nil && !cited[base] {
			victim = base
			break
		}
	}
	if victim == "" {
		t.Fatal("every certified function is cited by another function's ref certificate")
	}
	segment := victim + proof.TermsSuffix
	if err := os.Rename(filepath.Join(dir, segment), filepath.Join(dir, "TERMS.jsonl")); err != nil {
		t.Fatal(err)
	}

	after, err := proof.CheckDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after.Rejections) == 0 {
		t.Fatalf("%s verified against a run-wide TERMS.jsonl", victim)
	}
	named := false
	for _, r := range after.Rejections {
		if !strings.Contains(r, victim) {
			t.Errorf("rejection outside %s: %s", victim, r)
		}
		named = named || strings.Contains(r, "no term segment "+segment)
	}
	if !named {
		t.Errorf("no rejection names the missing segment %s: %q", segment, after.Rejections)
	}
	var others []string
	for _, fn := range before.Certified {
		if fn != victim {
			others = append(others, fn)
		}
	}
	if !reflect.DeepEqual(after.Certified, others) {
		t.Errorf("certified %v, want every function but %s: %v", after.Certified, victim, others)
	}
}

// TestCheckDirDeterministicAcrossWorkers checks a directory whose traces
// are tampered in at least three functions, and whose ref certificates
// resolve across functions, at GOMAXPROCS 1 and 4: the reports must be
// deep-equal and proofcheck's rendered output byte-identical.
func TestCheckDirDeterministicAcrossWorkers(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not in PATH")
	}
	src, _ := emitProofDir(t)
	dir := copyProofDir(t, src)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	tampered := 0
	owner := map[string]string{} // certificate key → function
	var refs [][2]string         // (function, key) of each ref certificate
	for _, e := range entries {
		base, ok := strings.CutSuffix(e.Name(), proof.CertsSuffix)
		if !ok {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, raw := range certValues(inflate(data)) {
			var q proof.QueryCert
			if json.Unmarshal(raw, &q) != nil || q.Key == "" {
				continue
			}
			if q.Kind == proof.KindRef {
				refs = append(refs, [2]string{base, q.Key})
			} else {
				owner[q.Key] = base
			}
		}
		path := filepath.Join(dir, base+proof.DratSuffix)
		data, err = os.ReadFile(path)
		if err != nil {
			continue // no Unsat query went to SAT
		}
		steps := decodeDrat(data)
		at := nonRUPFlip(t, steps, dratFinals(t, filepath.Join(dir, e.Name())))
		if at < 0 {
			continue
		}
		steps[at].lits[0] = -steps[at].lits[0]
		var buf bytes.Buffer
		bw := proof.NewBinWriter(&buf)
		for _, s := range steps {
			if err := bw.Step(s.sess, s.op, s.lits); err != nil {
				t.Fatal(err)
			}
		}
		if err := bw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		tampered++
	}
	if tampered < 3 {
		t.Fatalf("tampered %d traces, want at least 3", tampered)
	}
	crossing := 0
	for _, r := range refs {
		if fn, ok := owner[r[1]]; ok && fn != r[0] {
			crossing++
		}
	}
	if crossing == 0 {
		t.Fatal("no ref certificate resolves in another function")
	}

	prev := runtime.GOMAXPROCS(1)
	serial, err := proof.CheckDir(dir)
	runtime.GOMAXPROCS(4)
	parallel, perr := proof.CheckDir(dir)
	runtime.GOMAXPROCS(prev)
	if err != nil || perr != nil {
		t.Fatal(err, perr)
	}
	if len(serial.Rejections) < tampered {
		t.Fatalf("%d rejections for %d tampered traces", len(serial.Rejections), tampered)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("reports differ:\nGOMAXPROCS=1: %+v\nGOMAXPROCS=4: %+v", serial, parallel)
	}

	bin := filepath.Join(t.TempDir(), "proofcheck")
	if out, err := exec.Command(goBin, "build", "-o", bin, "repro/cmd/proofcheck").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	render := func(procs string) []byte {
		cmd := exec.Command(bin, "-v", dir)
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+procs)
		out, err := cmd.CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("proofcheck at GOMAXPROCS=%s: %v, want exit status 1\n%s", procs, err, out)
		}
		return out
	}
	if one, four := render("1"), render("4"); !bytes.Equal(one, four) {
		t.Fatalf("proofcheck output differs:\nGOMAXPROCS=1:\n%s\nGOMAXPROCS=4:\n%s", one, four)
	}
}
