package proof

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/term"
)

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

// outFile is one buffered artifact file; cw counts its bytes on disk.
type outFile struct {
	f  *os.File
	bw *bufio.Writer
	cw countWriter
}

func createOut(path string, size int) (*outFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	o := &outFile{f: f, bw: bufio.NewWriterSize(f, size)}
	o.cw.w = o.bw
	return o, nil
}

func (o *outFile) close() error {
	err := o.bw.Flush()
	if cerr := o.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// zFile is an artifact file written through the compressed-JSON
// container, one JSON value per Encode.
type zFile struct {
	*outFile
	zw  *zWriter
	enc *json.Encoder
}

func createZ(path string, size int) (*zFile, error) {
	o, err := createOut(path, size)
	if err != nil {
		return nil, err
	}
	zw := newZWriter(&o.cw)
	if zw.err != nil {
		o.f.Close()
		return nil, zw.err
	}
	return &zFile{outFile: o, zw: zw, enc: json.NewEncoder(zw)}, nil
}

func (z *zFile) close() error {
	err := z.zw.Close()
	if cerr := z.outFile.close(); err == nil {
		err = cerr
	}
	return err
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

// NewRecorder creates dir if needed and opens the certs file of
// function in it. The recorder streams: query certificates are appended
// to the certs file as they are recorded, and trace steps go straight
// into the binary-DRAT writer (opened at the first step) — their memory
// is O(largest query), not O(function). Term rows are serialized as
// EncodeTerm meets them and written to the function's term segment by
// Close: the rows are smaller than the term context the function holds
// anyway, and a segment compressed in one shot keeps no DEFLATE state
// alive while the function validates.
//
// The four files a recorder writes (certs, terms, drat, witness) are
// self-contained: they verify whatever other functions' artifacts share
// the directory, which is what lets a result-store entry hold one
// function's proof on its own.
func NewRecorder(dir, function string) (*Recorder, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, FileBase(function))
	certs, err := createZ(base+CertsSuffix, 1<<15)
	if err != nil {
		return nil, err
	}
	r := &Recorder{function: function, dir: dir, memo: make(map[*term.Term]int32), certs: certs}
	r.terms = json.NewEncoder(&r.rows)
	r.keep(certs.enc.Encode(certsHeader{Schema: Schema, Function: function}))
	return r, nil
}

// keep records err as the recorder's error unless one is already set.
func (r *Recorder) keep(err error) {
	if r.err == nil {
		r.err = err
	}
}

// EncodeTerm appends t and every subterm not yet in the function's term
// segment, children first, and returns t's id. Ids are dense in segment
// order, so a reader materializes the segment in one forward pass. The
// memo is keyed by pointer: every term of one function comes from one
// hash-consed term context, where structurally equal terms are
// pointer-equal.
func (r *Recorder) EncodeTerm(t *term.Term) int {
	if id, ok := r.memo[t]; ok {
		return int(id)
	}
	type frame struct {
		t    *term.Term
		next int
	}
	stack := []frame{{t: t}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.t.Args) {
			arg := f.t.Args[f.next]
			f.next++
			if _, ok := r.memo[arg]; !ok {
				stack = append(stack, frame{t: arg})
			}
			continue
		}
		r.emitRow(f.t)
		stack = stack[:len(stack)-1]
	}
	return int(r.memo[t])
}

// emitRow assigns t, whose children are already encoded, the next id
// and appends its TNode line to the segment's rows.
func (r *Recorder) emitRow(t *term.Term) {
	r.memo[t] = int32(len(r.memo))
	if r.closed {
		return
	}
	n := TNode{K: term.KindName(t.Kind), W: t.Width, N: t.Name, Hi: t.Hi, Lo: t.Lo}
	if t.Val != 0 {
		n.V = strconv.FormatUint(t.Val, 10)
	}
	for _, a := range t.Args {
		n.A = append(n.A, int(r.memo[a]))
	}
	r.keep(r.terms.Encode(&n))
}

func (r *Recorder) writeQuery(q QueryCert) {
	if r.err == nil && !r.closed {
		r.keep(r.certs.enc.Encode(&q))
	}
}

func (r *Recorder) writeStep(sess int, op byte, lits []int32) {
	if r.err != nil || r.closed {
		return
	}
	if r.bin == nil {
		drat, err := createOut(filepath.Join(r.dir, FileBase(r.function))+DratSuffix, 1<<16)
		if err != nil {
			r.keep(err)
			return
		}
		r.drat, r.bin = drat, NewBinWriter(&drat.cw)
		if r.keep(r.bin.Err()); r.err != nil {
			return
		}
	}
	r.keep(r.bin.Step(sess, op, lits))
}

// Close finalizes a recorder: it writes the session trailer, flushes
// and closes the certs and trace files, writes the term segment, and —
// when certified — writes the bisimulation witness. It returns the
// bytes this function's artifacts occupy on disk and the first error
// encountered anywhere in the stream (a certificate written after an
// I/O error must not be trusted silently). Close is idempotent.
func (r *Recorder) Close(certified bool) (int64, error) {
	if r.closed {
		return r.bytes, r.err
	}
	if r.err == nil {
		tr := certsTrailer{Sessions: make([]SessionInfo, 0, len(r.sessions))}
		for _, s := range r.sessions {
			vars := append([]VarMap(nil), s.vars...)
			sort.Slice(vars, func(i, j int) bool { return vars[i].Name < vars[j].Name })
			tr.Sessions = append(tr.Sessions, SessionInfo{Index: s.index, Vars: vars})
		}
		r.keep(r.certs.enc.Encode(&tr))
	}
	r.closed = true
	r.keep(r.certs.close())
	r.bytes = r.certs.cw.n
	// Written even after an error, like the certs file: a ref certificate
	// elsewhere may cite this function's model certificates.
	n, err := writeDeflated(filepath.Join(r.dir, FileBase(r.function))+TermsSuffix, r.rows.Bytes())
	r.bytes += n
	r.keep(err)
	if r.drat != nil {
		r.keep(r.bin.Close())
		r.keep(r.drat.close())
		r.bytes += r.drat.cw.n
	}
	if certified && r.err == nil {
		n, err := writeWitness(r.dir, r)
		r.bytes += n
		r.keep(err)
	}
	return r.bytes, r.err
}
