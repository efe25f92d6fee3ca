package proof

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/term"
)

// TermsName is the shared term-table segment of a proof directory.
const TermsName = "TERMS.jsonl"

// countWriter counts bytes on their way to the underlying writer, so
// ProofBytes reports what actually lands on disk (post-encoding,
// post-compression), not an in-memory estimate.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// DirWriter owns the run-wide artifacts of a proof directory:
// the shared term table with its TERMS.jsonl segment, and the recorders
// of the individual functions. One DirWriter is created per run and
// shared by all workers; NewRecorder is safe to call concurrently, and
// each returned Recorder is confined to its worker.
//
// Recorders stream: query certificates are appended to the
// certs file as they are recorded, trace steps go straight into the
// binary-DRAT writer, and term rows into the shared segment — peak
// memory is O(largest query), not O(function) or O(run).
type DirWriter struct {
	dir   string
	table *TermTable

	mu     sync.Mutex
	f      *os.File
	bw     *bufio.Writer
	cw     *countWriter
	zw     *zWriter
	closed bool
	err    error
}

// NewDirWriter creates dir if needed, truncates TERMS.jsonl, and
// returns a writer for a run.
func NewDirWriter(dir string) (*DirWriter, error) {
	return newDirWriter(dir, TermsName)
}

// NewFunctionDirWriter returns a DirWriter whose term segment is the
// per-function <FileBase(function)>.terms.jsonl instead of the shared
// TERMS.jsonl. The resulting four-file artifact set (certs, drat,
// witness, terms) is self-contained — it verifies no matter which other
// functions' artifacts share the directory — which is what lets a
// result-store entry hold one function's proof without dragging a
// run-wide segment along.
func NewFunctionDirWriter(dir, function string) (*DirWriter, error) {
	return newDirWriter(dir, FileBase(function)+TermsSuffix)
}

func newDirWriter(dir, termsFile string) (*DirWriter, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, termsFile))
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	cw := &countWriter{w: bw}
	zw := newZWriter(cw)
	if zw.err != nil {
		f.Close()
		return nil, zw.err
	}
	return &DirWriter{dir: dir, table: NewTermTable(zw), f: f, bw: bw, cw: cw, zw: zw}, nil
}

// Dir returns the proof directory path.
func (dw *DirWriter) Dir() string { return dw.dir }

// Table returns the shared term table.
func (dw *DirWriter) Table() *TermTable { return dw.table }

// NewRecorder returns a recorder for one function.
func (dw *DirWriter) NewRecorder(function string) *Recorder {
	return &Recorder{function: function, dw: dw, memo: make(map[*term.Term]int32)}
}

// TermBytes returns the bytes written to the term segment so far. Only
// stable after Close (or between functions under external ordering).
func (dw *DirWriter) TermBytes() int64 {
	dw.mu.Lock()
	defer dw.mu.Unlock()
	return dw.cw.n
}

// Close flushes and closes the term segment. Recorders must be closed
// first; the harness closes the DirWriter after all workers join.
func (dw *DirWriter) Close() error {
	dw.mu.Lock()
	defer dw.mu.Unlock()
	if dw.closed {
		return dw.err
	}
	dw.closed = true
	dw.err = dw.table.Err()
	if err := dw.zw.Close(); err != nil && dw.err == nil {
		dw.err = err
	}
	if err := dw.bw.Flush(); err != nil && dw.err == nil {
		dw.err = err
	}
	if err := dw.f.Close(); err != nil && dw.err == nil {
		dw.err = err
	}
	return dw.err
}

// certsHeader is the first JSON value of a certs file.
type certsHeader struct {
	Schema   int    `json:"schema"`
	Function string `json:"function"`
}

// certsTrailer is the last JSON value of a certs file: the
// per-session variable maps, known only once the function finishes.
type certsTrailer struct {
	Sessions []SessionInfo `json:"sessions"`
}

// streamState holds the open per-function files of a recorder.
type streamState struct {
	cf  *os.File
	cbw *bufio.Writer
	ccw *countWriter
	czw *zWriter
	enc *json.Encoder

	df  *os.File
	dbw *bufio.Writer
	dcw *countWriter
	bin *BinWriter

	err    error
	closed bool
	bytes  int64
}

// ensureCerts lazily opens the certs file and writes its header.
func (r *Recorder) ensureCerts() *streamState {
	if r.st == nil {
		r.st = &streamState{}
	}
	st := r.st
	if st.cf == nil && st.err == nil && !st.closed {
		base := filepath.Join(r.dw.dir, FileBase(r.function))
		f, err := os.Create(base + CertsSuffix)
		if err != nil {
			st.err = err
			return st
		}
		st.cf = f
		st.cbw = bufio.NewWriterSize(f, 1<<15)
		st.ccw = &countWriter{w: st.cbw}
		st.czw = newZWriter(st.ccw)
		st.enc = json.NewEncoder(st.czw)
		st.err = st.czw.err
		if st.err == nil {
			st.err = st.enc.Encode(certsHeader{Schema: Schema, Function: r.function})
		}
	}
	return st
}

// ensureDrat lazily opens the binary trace file.
func (r *Recorder) ensureDrat() *streamState {
	st := r.ensureCerts()
	if st.df == nil && st.err == nil && !st.closed {
		base := filepath.Join(r.dw.dir, FileBase(r.function))
		f, err := os.Create(base + DratSuffix)
		if err != nil {
			st.err = err
			return st
		}
		st.df = f
		st.dbw = bufio.NewWriterSize(f, 1<<16)
		st.dcw = &countWriter{w: st.dbw}
		st.bin = NewBinWriter(st.dcw)
		st.err = st.bin.Err()
	}
	return st
}

func (r *Recorder) writeQuery(q QueryCert) {
	st := r.ensureCerts()
	if st.err != nil || st.closed {
		return
	}
	st.err = st.enc.Encode(&q)
}

func (r *Recorder) writeStep(sess int, op byte, lits []int32) {
	st := r.ensureDrat()
	if st.err != nil || st.closed {
		return
	}
	st.err = st.bin.Step(sess, op, lits)
}

// Close finalizes a recorder: it writes the session trailer,
// flushes and closes the certs and trace files, and — when certified —
// writes the bisimulation witness. It returns the bytes this function's
// artifacts occupy on disk and the first error encountered anywhere in
// the stream (a certificate written after an I/O error must not be
// trusted silently). Close is idempotent.
func (r *Recorder) Close(certified bool) (int64, error) {
	st := r.ensureCerts() // an empty function still gets a certs file
	if st.closed {
		return st.bytes, st.err
	}
	st.closed = true
	if st.err == nil {
		tr := certsTrailer{Sessions: make([]SessionInfo, 0, len(r.sessions))}
		for _, s := range r.sessions {
			vars := append([]VarMap(nil), s.vars...)
			sort.Slice(vars, func(i, j int) bool { return vars[i].Name < vars[j].Name })
			tr.Sessions = append(tr.Sessions, SessionInfo{Index: s.index, Vars: vars})
		}
		st.err = st.enc.Encode(&tr)
	}
	if st.cf != nil {
		if err := st.czw.Close(); err != nil && st.err == nil {
			st.err = err
		}
		if err := st.cbw.Flush(); err != nil && st.err == nil {
			st.err = err
		}
		if err := st.cf.Close(); err != nil && st.err == nil {
			st.err = err
		}
		st.bytes += st.ccw.n
	}
	if st.bin != nil {
		if err := st.bin.Close(); err != nil && st.err == nil {
			st.err = err
		}
		if err := st.dbw.Flush(); err != nil && st.err == nil {
			st.err = err
		}
		if err := st.df.Close(); err != nil && st.err == nil {
			st.err = err
		}
		st.bytes += st.dcw.n
	}
	if certified && st.err == nil {
		n, err := writeWitness(r.dw.dir, r)
		st.bytes += n
		if err != nil {
			st.err = err
		}
	}
	return st.bytes, st.err
}
