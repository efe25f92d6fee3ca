package proof

import (
	"bufio"
	"bytes"
	"compress/flate"
	"fmt"
	"io"
)

// The JSON artifacts (certs streams, term segments, witnesses) are
// written through a small compressed container: the 4-byte magic
// "BJSN", one version byte, then a single DEFLATE stream holding the
// JSON text. Models and term rows are where the redundancy lives — the
// container takes the certificate side of a proof directory down
// roughly 10x.
const (
	zjsonMagic   = "BJSN"
	zjsonVersion = 1
)

// zWriter chains payload -> DEFLATE -> w. Everything below it sees
// compressed bytes, so a countWriter underneath keeps counting what
// actually lands on disk.
type zWriter struct {
	fw  *flate.Writer
	err error
}

func newZWriter(w io.Writer) *zWriter {
	z := &zWriter{}
	if _, err := io.WriteString(w, zjsonMagic+string(rune(zjsonVersion))); err != nil {
		z.err = err
		return z
	}
	fw, err := flate.NewWriter(w, flate.DefaultCompression)
	if err != nil {
		z.err = err
		return z
	}
	z.fw = fw
	return z
}

func (z *zWriter) Write(p []byte) (int, error) {
	if z.err != nil {
		return 0, z.err
	}
	n, err := z.fw.Write(p)
	if err != nil {
		z.err = err
	}
	return n, err
}

// Close terminates the DEFLATE stream (without it the final block never
// flushes and the artifact is truncated). It does not close the
// underlying writer.
func (z *zWriter) Close() error {
	if z.err != nil {
		return z.err
	}
	if err := z.fw.Close(); err != nil {
		z.err = err
	}
	return z.err
}

// inflate checks the container header of r and returns a reader of the
// JSON text inside. Plain JSON (the retired schema-1 artifacts) and
// unknown container versions are rejected, never guessed at.
func inflate(r io.Reader) (io.Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head, _ := br.Peek(len(zjsonMagic) + 1)
	if len(head) < len(zjsonMagic)+1 || string(head[:len(zjsonMagic)]) != zjsonMagic {
		return nil, fmt.Errorf("proof: unsupported artifact: not a compressed-JSON container (plain-JSON schema-1 artifacts are no longer accepted)")
	}
	if head[len(zjsonMagic)] != zjsonVersion {
		return nil, fmt.Errorf("proof: unsupported compressed-JSON container version %d", head[len(zjsonMagic)])
	}
	br.Discard(len(zjsonMagic) + 1)
	return flate.NewReader(br), nil
}

// deflateJSON wraps one whole marshalled document in the container
// (used for witnesses, which are written in a single shot).
func deflateJSON(data []byte) ([]byte, error) {
	var buf bytes.Buffer
	zw := newZWriter(&buf)
	if zw.err != nil {
		return nil, zw.err
	}
	if _, err := zw.Write(data); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
