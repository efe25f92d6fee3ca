package proof

import (
	"bufio"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
)

// Binary DRAT container (schema 2, container version 3). The file starts
// with an uncompressed four-byte magic "BDRT" plus one version byte;
// everything after the header is one DEFLATE stream of records:
//
//	's' uvarint(index)          switch the current session. The first
//	                            record with an index opens that session;
//	                            a repeated index resumes it. Indices may
//	                            first appear in any order: traces written
//	                            by older builds, whose stolen-slot cube
//	                            conquests could flush a later session
//	                            before the incremental session they split,
//	                            may still sit in result stores.
//	'i'/'l'/'d' uvarint(n) lits step of the current session (input, learnt,
//	                            deleted clause), n delta-coded literals.
//	'c' crc32                   trailer, the last record: the big-endian
//	                            CRC-32 (IEEE) of every inflated byte before
//	                            it, its own 'c' included.
//
// DEFLATE carries no checksum, so without the trailer a flipped body byte
// can decode into a well-formed trace with altered input clauses — which
// the checker would install as axioms. Version 2 streams lack the
// trailer and are rejected.
//
// Literals are sorted by variable (positive polarity first on ties) and
// encoded as uvarint((var - prevVar) << 1 | signBit). Sorting is sound —
// clauses are sets: RUP and the checker's deletion matching are both
// insensitive to literal order — and it makes the deltas
// small, which together with DEFLATE is what buys the ~8-9x size
// reduction over the textual format.
const (
	binDratMagic = "BDRT"
	// BinDratVersion is the on-disk version byte; readers reject files
	// whose version they do not understand rather than misparse them.
	BinDratVersion = 3
	// recTrailer tags the closing CRC-32 record.
	recTrailer = 'c'
)

const maxClauseLen = 1 << 24 // decoder sanity bound on uvarint clause lengths

// BinWriter incrementally encodes a binary-DRAT stream. It is used by a
// single goroutine (the recorder of one function) and keeps a sticky
// error: after the first write failure every call is a no-op returning
// that error.
type BinWriter struct {
	fw      *flate.Writer
	rec     []byte  // record scratch
	scratch []int32 // sorted-literal scratch (callers keep their slices)
	cur     int     // current session, -1 before the first record
	seen    int     // sessions opened so far
	crc     uint32  // CRC-32 of the records written so far
	err     error
}

// NewBinWriter writes the header to w and returns a writer for the body.
func NewBinWriter(w io.Writer) *BinWriter {
	bw := &BinWriter{cur: -1}
	if _, err := io.WriteString(w, binDratMagic); err != nil {
		bw.err = err
		return bw
	}
	if _, err := w.Write([]byte{BinDratVersion}); err != nil {
		bw.err = err
		return bw
	}
	fw, err := flate.NewWriter(w, flate.DefaultCompression)
	if err != nil {
		bw.err = err
		return bw
	}
	bw.fw = fw
	return bw
}

// Err returns the sticky error, if any.
func (bw *BinWriter) Err() error { return bw.err }

// Step appends one trace step of session sess, switching sessions if
// needed. lits is not modified and not retained.
func (bw *BinWriter) Step(sess int, op byte, lits []int32) error {
	if bw.err != nil {
		return bw.err
	}
	if op != OpInput && op != OpLearn && op != OpDelete {
		bw.err = fmt.Errorf("proof: binary drat: bad opcode %q", op)
		return bw.err
	}
	if sess != bw.cur {
		if sess < 0 {
			bw.err = fmt.Errorf("proof: binary drat: negative session %d", sess)
			return bw.err
		}
		if sess >= bw.seen {
			bw.seen = sess + 1
		}
		bw.rec = appendUvarint(append(bw.rec[:0], 's'), uint64(sess))
		if err := bw.write(bw.rec); err != nil {
			return err
		}
		bw.cur = sess
	}
	bw.scratch = append(bw.scratch[:0], lits...)
	sortClauseLits(bw.scratch)
	bw.rec = appendUvarint(append(bw.rec[:0], op), uint64(len(bw.scratch)))
	prev := int32(0)
	for _, l := range bw.scratch {
		v, sign := l, uint64(0)
		if v < 0 {
			v, sign = -v, 1
		}
		bw.rec = appendUvarint(bw.rec, uint64(v-prev)<<1|sign)
		prev = v
	}
	return bw.write(bw.rec)
}

// write feeds one record to the compressor and the running CRC.
func (bw *BinWriter) write(rec []byte) error {
	bw.crc = crc32.Update(bw.crc, crc32.IEEETable, rec)
	if _, err := bw.fw.Write(rec); err != nil {
		bw.err = err
	}
	return bw.err
}

// Flush forces buffered records through the compressor to the underlying
// writer, at a small compression-ratio cost at the flush boundary.
func (bw *BinWriter) Flush() error {
	if bw.err != nil {
		return bw.err
	}
	if err := bw.fw.Flush(); err != nil {
		bw.err = err
	}
	return bw.err
}

// Close writes the CRC trailer and terminates the DEFLATE stream. The
// underlying writer is not closed.
func (bw *BinWriter) Close() error {
	if bw.err != nil {
		return bw.err
	}
	bw.crc = crc32.Update(bw.crc, crc32.IEEETable, []byte{recTrailer})
	trailer := binary.BigEndian.AppendUint32([]byte{recTrailer}, bw.crc)
	if _, err := bw.fw.Write(trailer); err != nil {
		bw.err = err
		return err
	}
	if err := bw.fw.Close(); err != nil {
		bw.err = err
	}
	return bw.err
}

// sortClauseLits orders a clause canonically: by variable, positive
// polarity first on ties.
func sortClauseLits(lits []int32) {
	sort.Slice(lits, func(i, j int) bool {
		vi, vj := abs32(lits[i]), abs32(lits[j])
		if vi != vj {
			return vi < vj
		}
		return lits[i] > lits[j]
	})
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// WalkDrat streams the steps of a binary .drat file (the container
// above). Anything without the container header — in particular the
// retired schema-1 text traces — is rejected. Steps reach fn before the
// trailer is read, so a stream whose CRC trailer is missing or does not
// match fails only at its end: callers must treat the error as rejecting
// every step they were given. The literal slice passed to fn is reused
// between calls and must not be retained.
func WalkDrat(r io.Reader, fn func(sess int, op byte, lits []int32) error) error {
	br := bufio.NewReaderSize(r, 1<<16)
	head, _ := br.Peek(len(binDratMagic) + 1)
	if len(head) < len(binDratMagic)+1 || string(head[:len(binDratMagic)]) != binDratMagic {
		return fmt.Errorf("proof: unsupported trace: not a binary DRAT container (text traces are no longer accepted)")
	}
	if head[len(binDratMagic)] != BinDratVersion {
		return fmt.Errorf("proof: binary drat version %d, checker supports %d",
			head[len(binDratMagic)], BinDratVersion)
	}
	br.Discard(len(binDratMagic) + 1)
	fr := flate.NewReader(br)
	defer fr.Close()
	rd := &recordReader{r: fr, buf: make([]byte, 1<<15)}
	cur := -1
	var lits []int32
	for {
		b, err := rd.ReadByte()
		if err == io.EOF {
			return fmt.Errorf("proof: binary drat: missing CRC trailer")
		}
		if err != nil {
			return fmt.Errorf("proof: binary drat: %v", err)
		}
		switch b {
		case recTrailer:
			want := rd.sum()
			var got uint32
			for i := 0; i < 4; i++ {
				c, err := rd.ReadByte()
				if err != nil {
					return fmt.Errorf("proof: binary drat: truncated CRC trailer")
				}
				got = got<<8 | uint32(c)
			}
			if got != want {
				return fmt.Errorf("proof: binary drat: CRC mismatch")
			}
			if _, err := rd.ReadByte(); err != io.EOF {
				return fmt.Errorf("proof: binary drat: data after CRC trailer")
			}
			return nil
		case 's':
			u, err := binary.ReadUvarint(rd)
			if err != nil {
				return fmt.Errorf("proof: binary drat: truncated session record")
			}
			// Sessions may first appear in any order (see the format note
			// above); only bound the index against absurd values.
			if u > 1<<30 {
				return fmt.Errorf("proof: binary drat: implausible session index %d", u)
			}
			cur = int(u)
		case OpInput, OpLearn, OpDelete:
			if cur < 0 {
				return fmt.Errorf("proof: binary drat: step before session record")
			}
			n, err := binary.ReadUvarint(rd)
			if err != nil {
				return fmt.Errorf("proof: binary drat: truncated step header")
			}
			if n > maxClauseLen {
				return fmt.Errorf("proof: binary drat: implausible clause length %d", n)
			}
			lits = lits[:0]
			prev := int32(0)
			for i := uint64(0); i < n; i++ {
				u, err := binary.ReadUvarint(rd)
				if err != nil {
					return fmt.Errorf("proof: binary drat: truncated clause")
				}
				d := u >> 1
				if d > uint64(math.MaxInt32)-uint64(prev) {
					return fmt.Errorf("proof: binary drat: literal overflow")
				}
				v := prev + int32(d)
				if v == 0 {
					return fmt.Errorf("proof: binary drat: zero literal")
				}
				l := v
				if u&1 == 1 {
					l = -v
				}
				lits = append(lits, l)
				prev = v
			}
			if err := fn(cur, b, lits); err != nil {
				return err
			}
		default:
			return fmt.Errorf("proof: binary drat: unknown record 0x%02x", b)
		}
	}
}

// recordReader reads the inflated record stream and keeps the CRC-32 of
// the bytes consumed so far, folding each buffer in as it is used up so
// the checksum costs one bulk update per refill.
type recordReader struct {
	r        io.Reader
	buf      []byte
	pos, end int    // buf[pos:end] is unread
	crc      uint32 // CRC of the bytes consumed before buf
}

func (rr *recordReader) ReadByte() (byte, error) {
	if rr.pos == rr.end {
		rr.crc = crc32.Update(rr.crc, crc32.IEEETable, rr.buf[:rr.end])
		rr.pos, rr.end = 0, 0
		n, err := io.ReadAtLeast(rr.r, rr.buf, 1)
		if n == 0 {
			return 0, err
		}
		rr.end = n
	}
	b := rr.buf[rr.pos]
	rr.pos++
	return b, nil
}

// sum returns the CRC-32 of every byte consumed so far.
func (rr *recordReader) sum() uint32 {
	return crc32.Update(rr.crc, crc32.IEEETable, rr.buf[:rr.pos])
}
