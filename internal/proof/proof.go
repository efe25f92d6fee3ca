// Package proof defines the certificate format emitted by the
// translation-validation pipeline and implements the independent checker
// that replays it.
//
// A proof directory holds up to four artifacts per validated function,
// each set written by the function's Recorder and self-contained:
//
//   - <fn>.terms.jsonl — the function's term segment: one serialized
//     term-DAG node per line, in topological id order (see recorder.go).
//     Certificates and witnesses reference terms by their id in it.
//   - <fn>.certs.json — a stream of JSON values: a header, one record
//     per SMT query the validator ran, in execution order (the verdict,
//     the certificate kind, and for Sat verdicts the model plus the id
//     of the term it must satisfy), and a trailer of session variable
//     maps.
//   - <fn>.drat — the binary SAT session traces backing the Unsat
//     verdicts (see bdrat.go): every input clause the bit-blaster
//     emitted, every clause the CDCL solver learnt, and every clause
//     database reduction deleted, in order. Unsat certificates point at
//     a position in this trace and name a final clause that must follow
//     by reverse unit propagation.
//   - <fn>.witness.json — the bisimulation witness: the synchronization
//     points, and for each non-exiting point the cut successors explored
//     by Algorithm 1 together with the pairing decisions and the query
//     certificates that discharge each pair's obligations. Written only
//     for functions whose validation succeeded.
//
// The JSON artifacts are wrapped in a DEFLATE container (see zjson.go).
//
// The checker (CheckDir, driven by cmd/proofcheck) verifies Unsat
// verdicts by reverse unit propagation — no CDCL, no heuristics — and
// Sat verdicts by decoding the term DAG with the raw (non-simplifying)
// constructor and evaluating it under the recorded model. It deliberately
// imports only the term layer (internal/term), never internal/sat or the
// internal/smt solver facade, so a bug in the solver cannot also hide in
// the checker.
//
// Soundness rules for certificate kinds:
//
//   - "drat":       Unsat backed by a RUP-checked trace position.
//   - "model":      Sat backed by direct evaluation of the recorded model.
//   - "trivial":    the queried term itself is the constant true/false;
//     the checker re-reads the constant.
//   - "simplified": the verdict came from the term simplifier / array
//     reducer before any CNF existed; recorded and counted separately —
//     these remain inside the trust base (see DESIGN.md §6).
//   - "ref":        the verdict came from the solver's VC cache. The
//     record names the canonical key of the original entry; the checker
//     resolves it against the verified certificate with that key in the
//     same function's certs file ("certified by reference") and rejects
//     it if none exists there or the verdicts disagree. A cache hit is
//     never silently certified.
//
// Cube-and-conquer verdicts need no certificate kind of their own. The
// conquest runs in place on the query's own solver: each cube is solved
// under the query's assumptions extended with the cube's literals, and
// each refutation is learned back into the session log as the clause
// ¬assumptions ∨ ¬cube — RUP at that log position, because the cube's
// assumptions acted as decisions. The splitting tree is then collapsed
// by post-order prefix-negation clauses, each RUP from its two
// children's clauses, down to the query's ordinary final obligation, so
// the certificate is indistinguishable from a solo session's and cubing
// adds nothing to the trust base.
package proof

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/term"
)

// Schema is the certificate format version Recorder writes and the
// only one CheckDir accepts: the certs file is a stream of concatenated
// JSON values (header, one value per query certificate, session
// trailer), term ids index the function's own <fn>.terms.jsonl segment,
// and the .drat companion uses the binary container (see bdrat.go).
const Schema = 2

// Result strings used in certificates.
const (
	ResSat   = "sat"
	ResUnsat = "unsat"
)

// Certificate kinds.
const (
	KindDRAT       = "drat"
	KindModel      = "model"
	KindTrivial    = "trivial"
	KindSimplified = "simplified"
	KindRef        = "ref"
)

// Pair justification kinds in a witness.
const (
	HowQueries  = "queries"  // pairing + obligation discharged by Unsat queries
	HowFastPath = "fastpath" // path conditions syntactically identical
	HowExcuse   = "excuse"   // left-side UB excuses the right behavior (§4.6)
)

// QueryCert is the certificate of one SMT query.
type QueryCert struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	Result string `json:"result"`
	// Key is the alpha-invariant canonical hash of the queried term (hex).
	// It is the content address "ref" certificates resolve against.
	Key string `json:"key,omitempty"`
	// Term is the term id in the function's segment for kinds
	// trivial/model/simplified (-1 otherwise).
	Term int `json:"term"`
	// Model is the satisfying assignment for kind "model".
	Model *Model `json:"model,omitempty"`
	// Sess/Pos/Final locate the RUP obligation for kind "drat": after Pos
	// steps of session Sess, clause Final must be RUP (empty = the empty
	// clause, i.e. a global refutation; otherwise the negated-assumption
	// clause of the incremental query).
	Sess  int   `json:"sess,omitempty"`
	Pos   int   `json:"pos,omitempty"`
	Final []int `json:"final,omitempty"`
}

// Model is a deterministic serialization of a satisfying assignment.
// Entries are sorted by name; bitvector values are decimal strings so
// 64-bit values survive JSON number precision.
type Model struct {
	BV   []BVAssign   `json:"bv,omitempty"`
	Bool []BoolAssign `json:"bool,omitempty"`
	Mem  []MemAssign  `json:"mem,omitempty"`
}

// BVAssign is one bitvector variable assignment.
type BVAssign struct {
	Name string `json:"n"`
	Val  string `json:"v"`
}

// BoolAssign is one boolean variable assignment.
type BoolAssign struct {
	Name string `json:"n"`
	Val  bool   `json:"v"`
}

// MemAssign is the byte contents of one memory base array.
type MemAssign struct {
	Base  string    `json:"n"`
	Bytes []MemByte `json:"b,omitempty"`
}

// MemByte is one byte of a memory assignment.
type MemByte struct {
	Addr string `json:"a"`
	Val  uint8  `json:"v"`
}

// VarMap records the CNF variables backing one free term variable of a
// SAT session: DIMACS literals, LSB first for bitvectors.
type VarMap struct {
	Name string `json:"n"`
	Sort string `json:"sort"` // "bv" | "bool"
	Bits []int  `json:"bits"`
}

// SessionInfo is the per-session metadata stored in the certs file; the
// clause trace itself lives in the .drat companion file.
type SessionInfo struct {
	Index int      `json:"index"`
	Vars  []VarMap `json:"vars,omitempty"`
}

// PointInfo describes one synchronization point in a witness.
type PointInfo struct {
	ID           string `json:"id"`
	Left         string `json:"left"`
	Right        string `json:"right"`
	Exiting      bool   `json:"exiting,omitempty"`
	MemEqual     bool   `json:"mem,omitempty"`
	NConstraints int    `json:"nconstraints"`
}

// SuccState describes one feasible cut successor of a checked point.
type SuccState struct {
	Loc   string `json:"loc"`
	Error string `json:"error,omitempty"`
	// PC is the term id of the successor's path condition.
	PC int `json:"pc"`
	// FeasQ names the Sat query certifying the path condition feasible;
	// empty when the condition is the constant true (no query was run).
	FeasQ string `json:"feasq,omitempty"`
}

// Pruned records a cut successor dropped for an unsatisfiable path
// condition, with the Unsat query justifying the prune (empty when the
// condition was the constant false).
type Pruned struct {
	Loc string `json:"loc"`
	Q   string `json:"q,omitempty"`
}

// PairWitness records one blackened pair (left successor L, right
// successor R) and the evidence for it.
type PairWitness struct {
	L   int    `json:"l"`
	R   int    `json:"r"`
	How string `json:"how"`
	// Sync names the point whose constraints were discharged (queries and
	// fastpath kinds).
	Sync string `json:"sync,omitempty"`
	// PairQs are the two Unsat pairing queries (kind queries), or the one
	// Sat overlap query (kind excuse); empty for fastpath.
	PairQs []string `json:"pairqs,omitempty"`
	// ObligQ is the Unsat query discharging the sync point's constraint
	// obligations (queries and fastpath kinds).
	ObligQ string `json:"obligq,omitempty"`
}

// CheckedPoint is the exploration record of one non-exiting point.
type CheckedPoint struct {
	Point       string        `json:"point"`
	Left        []SuccState   `json:"left"`
	Right       []SuccState   `json:"right"`
	PrunedLeft  []Pruned      `json:"pruned_left,omitempty"`
	PrunedRight []Pruned      `json:"pruned_right,omitempty"`
	Pairs       []PairWitness `json:"pairs"`
}

// WitnessFile is the on-disk <fn>.witness.json document.
type WitnessFile struct {
	Schema   int            `json:"schema"`
	Function string         `json:"function"`
	Mode     string         `json:"mode"` // "equivalence" | "refinement"
	Points   []PointInfo    `json:"points"`
	Checked  []CheckedPoint `json:"checked"`
}

// ManifestRow is one corpus row in the manifest.
type ManifestRow struct {
	Name      string `json:"name"`
	Class     string `json:"class"`
	Certified bool   `json:"certified"`
}

// Manifest is the on-disk MANIFEST.json document of a corpus run.
type Manifest struct {
	Schema    int           `json:"schema"`
	Functions []ManifestRow `json:"functions"`
}

// Session is one SAT instance's trace during recording. Steps stream
// straight to the owning recorder's binary trace writer; the session
// keeps only its step count and variable maps.
type Session struct {
	index int
	rec   *Recorder
	count int
	vars  []VarMap
}

// Step opcodes of the binary trace.
const (
	OpInput  = byte('i')
	OpLearn  = byte('l')
	OpDelete = byte('d')
)

// AddStep appends one trace step with DIMACS-encoded literals.
func (s *Session) AddStep(op byte, lits []int32) {
	s.count++
	s.rec.writeStep(s.index, op, lits)
}

// Len returns the number of steps recorded.
func (s *Session) Len() int { return s.count }

// MapVar records the CNF variables backing a free term variable.
func (s *Session) MapVar(name, sort string, bits []int) {
	s.vars = append(s.vars, VarMap{Name: name, Sort: sort, Bits: bits})
}

// Recorder streams the certificates, term segment and bisimulation
// witness of one function under validation into a proof directory:
// certificates and trace steps are written as they are recorded, and
// Close writes the term segment and finalizes the function. It is used by a single
// goroutine (the harness worker validating the function) and shares
// nothing, so it needs no locking. Create one with NewRecorder.
type Recorder struct {
	function string
	dir      string
	nq       int
	sessions []*Session

	memo  map[*term.Term]int32 // segment id of every encoded term
	rows  bytes.Buffer         // the term segment's TNode lines
	terms *json.Encoder        // into rows
	certs *zFile
	drat  *outFile // nil until the first trace step
	bin   *BinWriter

	err    error // first error anywhere in the stream
	closed bool
	bytes  int64

	mode    string
	points  []PointInfo
	checked []CheckedPoint
}

// Function returns the function name the recorder was created for.
func (r *Recorder) Function() string { return r.function }

// NumQueries returns the number of query certificates recorded so far.
// Callers use it as a watermark: record it before issuing solver queries,
// then QueriesSince(w) names the certificates those queries produced.
func (r *Recorder) NumQueries() int { return r.nq }

// QueriesSince returns the IDs of certificates recorded at index w and
// later. IDs are assigned densely ("q0", "q1", ...) so they are derived
// from the indices; the recorder retains no certificate bodies.
func (r *Recorder) QueriesSince(w int) []string {
	ids := make([]string, 0, r.nq-w)
	for i := w; i < r.nq; i++ {
		ids = append(ids, fmt.Sprintf("q%d", i))
	}
	return ids
}

// NewSession starts a new SAT session trace and returns it.
func (r *Recorder) NewSession() *Session {
	s := &Session{index: len(r.sessions), rec: r}
	r.sessions = append(r.sessions, s)
	return s
}

func (r *Recorder) addQuery(q QueryCert) string {
	q.ID = fmt.Sprintf("q%d", r.nq)
	r.nq++
	r.writeQuery(q)
	return q.ID
}

// RecordTrivial records a verdict read off a constant-true/false query
// term.
func (r *Recorder) RecordTrivial(t *term.Term, result string, key string) string {
	return r.addQuery(QueryCert{Kind: KindTrivial, Result: result, Key: key, Term: r.EncodeTerm(t)})
}

// RecordSimplified records a verdict produced by the simplification
// pipeline after array reduction, before any CNF existed.
func (r *Recorder) RecordSimplified(t *term.Term, result string, key string) string {
	return r.addQuery(QueryCert{Kind: KindSimplified, Result: result, Key: key, Term: r.EncodeTerm(t)})
}

// RecordRef records a verdict answered by the solver's VC cache,
// certified by reference to the original entry's certificate in the
// same function.
func (r *Recorder) RecordRef(key string, result string) string {
	return r.addQuery(QueryCert{Kind: KindRef, Result: result, Key: key, Term: -1})
}

// RecordModel records a Sat verdict with its satisfying model.
func (r *Recorder) RecordModel(t *term.Term, m *Model, key string) string {
	return r.addQuery(QueryCert{Kind: KindModel, Result: ResSat, Key: key, Term: r.EncodeTerm(t), Model: m})
}

// RecordUnsat records an Unsat verdict backed by the DRAT trace of
// session sess: after pos steps, final must be RUP.
func (r *Recorder) RecordUnsat(sess *Session, pos int, final []int, key string) string {
	return r.addQuery(QueryCert{Kind: KindDRAT, Result: ResUnsat, Key: key, Term: -1, Sess: sess.index, Pos: pos, Final: final})
}

// SetMode records the checking mode ("equivalence" or "refinement").
func (r *Recorder) SetMode(mode string) { r.mode = mode }

// SetPoints records the synchronization points of the relation.
func (r *Recorder) SetPoints(points []PointInfo) { r.points = points }

// AddChecked appends the exploration record of one non-exiting point.
func (r *Recorder) AddChecked(cp CheckedPoint) { r.checked = append(r.checked, cp) }

// WitnessFile assembles the witness document. It references ids of the
// function's term segment and carries no table of its own.
func (r *Recorder) WitnessFile() *WitnessFile {
	return &WitnessFile{
		Schema:   Schema,
		Function: r.function,
		Mode:     r.mode,
		Points:   r.points,
		Checked:  r.checked,
	}
}

// ModelFromAssign converts an evaluator assignment into its
// deterministic serialized form.
func ModelFromAssign(a *term.Assign) *Model {
	m := &Model{}
	for name, v := range a.BV {
		m.BV = append(m.BV, BVAssign{Name: name, Val: fmt.Sprintf("%d", v)})
	}
	sort.Slice(m.BV, func(i, j int) bool { return m.BV[i].Name < m.BV[j].Name })
	for name, v := range a.Bool {
		m.Bool = append(m.Bool, BoolAssign{Name: name, Val: v})
	}
	sort.Slice(m.Bool, func(i, j int) bool { return m.Bool[i].Name < m.Bool[j].Name })
	for base, bytes := range a.Mem {
		ma := MemAssign{Base: base}
		for addr, v := range bytes {
			ma.Bytes = append(ma.Bytes, MemByte{Addr: fmt.Sprintf("%d", addr), Val: v})
		}
		sort.Slice(ma.Bytes, func(i, j int) bool { return ma.Bytes[i].Addr < ma.Bytes[j].Addr })
		m.Mem = append(m.Mem, ma)
	}
	sort.Slice(m.Mem, func(i, j int) bool { return m.Mem[i].Base < m.Mem[j].Base })
	return m
}

// AssignFromModel converts a serialized model back into an evaluator
// assignment.
func AssignFromModel(m *Model) (*term.Assign, error) {
	a := term.NewAssign()
	for _, e := range m.BV {
		v, err := strconv.ParseUint(e.Val, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("proof: bad bv value %q for %s: %v", e.Val, e.Name, err)
		}
		a.BV[e.Name] = v
	}
	for _, e := range m.Bool {
		a.Bool[e.Name] = e.Val
	}
	for _, e := range m.Mem {
		bytes := make(map[uint64]uint8, len(e.Bytes))
		for _, b := range e.Bytes {
			addr, err := strconv.ParseUint(b.Addr, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("proof: bad mem address %q in %s: %v", b.Addr, e.Base, err)
			}
			bytes[addr] = b.Val
		}
		a.Mem[e.Base] = bytes
	}
	return a, nil
}
