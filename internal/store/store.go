// Package store is the persistent half of validation-as-a-service: a
// disk-backed, content-addressed result store keyed by the same
// alpha-invariant SHA-256 hashes the VC cache uses (term.CanonKey, which
// smt.CanonKey aliases). Each entry carries a verdict *with* the
// certificate artifacts that make it independently re-checkable — the
// certs stream, the binary DRAT trace, the bisimulation witness,
// and a per-function term segment — so a cross-run hit is something
// cmd/proofcheck can verify, never something the daemon merely believes.
//
// Durability and trust rules:
//
//   - Writes are crash-safe: entries land under tmp/ first, are fsynced,
//     and are renamed into place with the prefix directory fsynced after
//     the rename; the store manifest is fsynced on creation. A crashed
//     writer leaves at worst an ignorable temp file, and a power cut
//     never surfaces a torn entry.
//   - The on-disk format is explicitly versioned (4-byte magic plus a
//     version byte on every entry and on the manifest) with a
//     per-version decoder table, so a store written by an old binary
//     stays loadable after the format moves on.
//   - Corruption never propagates: a truncated entry, a bit-flipped
//     artifact body (per-artifact CRC32), or an unknown future version
//     byte all surface as a clean miss — the caller re-validates — with
//     a store.corrupt / store.badversion metric bump. The store never
//     trusts a damaged verdict and never panics on one.
//   - Lifecycle preserves re-checkability: the byte-budgeted GC (gc.go)
//     evicts whole entries in LRU order by access time — a certificate
//     set is dropped entirely or kept entirely, never thinned — and the
//     background scrubber (scrub.go) re-decodes, CRC-checks, and
//     re-verifies entries, quarantining failures under quarantine/
//     where they read as clean misses.
//
// The package deliberately imports only the certificate layer
// (internal/proof, for scrub re-verification), the term layer, the
// telemetry registry, and the standard library — never the SAT/SMT
// solvers — so cmd/proofcheck can link it for store spot-checks without
// growing the trusted base (see the import-constraint test in
// internal/proof).
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
	"repro/internal/term"
)

// Key is the 32-byte content address of an entry — the same SHA-256
// canonical-hash type the VC cache is keyed by.
type Key = term.CanonKey

// KeyFromHex parses a 64-digit lowercase hex content address.
func KeyFromHex(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("store: bad key %q: %v", s, err)
	}
	if len(b) != len(k) {
		return k, fmt.Errorf("store: bad key %q: got %d bytes, want %d", s, len(b), len(k))
	}
	copy(k[:], b)
	return k, nil
}

// FunctionKey derives the content address of a function-level validation
// job from its semantic inputs (source text, options fingerprint, ...).
// Parts are length-prefixed before hashing so no two distinct part lists
// collide by concatenation.
func FunctionKey(parts ...string) Key {
	h := sha256.New()
	var lenBuf [8]byte
	for _, p := range parts {
		binary.LittleEndian.PutUint64(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:])
		h.Write([]byte(p))
	}
	var k Key
	h.Sum(k[:0])
	return k
}

// Metric names bumped by the store. store.corrupt and store.badversion
// are the corruption-handling telemetry the operator alerts on.
const (
	MetricHit        = "store.hit"
	MetricMiss       = "store.miss"
	MetricPut        = "store.put"
	MetricPutBytes   = "store.put_bytes"
	MetricCorrupt    = "store.corrupt"
	MetricBadVersion = "store.badversion"
)

// Meta is the verdict half of an entry: what the validator concluded,
// without the evidence.
type Meta struct {
	Function string `json:"function"`
	Class    string `json:"class"`
	Err      string `json:"err,omitempty"`
	CodeSize int    `json:"code_size"`
	Points   int    `json:"points,omitempty"`
	// Certified reports that the entry carries a verified-witness
	// artifact set (Succeeded rows only).
	Certified bool `json:"certified"`
	// CreatedUnixNS is the wall-clock time the entry was recorded.
	CreatedUnixNS int64 `json:"created_unix_ns"`
}

// Artifact is one named certificate file carried by an entry. Names are
// the exact file names a proof directory uses (<base>.certs.json,
// <base>.drat, <base>.witness.json, <base>.terms.jsonl), so
// MaterializeEntry is a plain write-out.
type Artifact struct {
	Name string
	Data []byte
}

// Entry is one stored verdict with its certificates.
type Entry struct {
	Meta      Meta
	Artifacts []Artifact
}

// Artifact returns the named artifact's bytes (nil when absent).
func (e *Entry) Artifact(name string) []byte {
	for _, a := range e.Artifacts {
		if a.Name == name {
			return a.Data
		}
	}
	return nil
}

// Store is a handle on one store directory. It is safe for concurrent
// use by any number of goroutines (and, for reads, processes): Get reads
// immutable content-addressed files, Put publishes atomically via
// rename.
type Store struct {
	dir     string
	metrics *telemetry.Metrics
	tmpSeq  atomic.Uint64

	// maxBytes, when > 0, is the byte budget Put enforces by running a
	// synchronous LRU GC on overflow; curBytes is the approximate usage
	// gauge behind the overflow check (GC re-walks for the exact total).
	maxBytes atomic.Int64
	curBytes atomic.Int64
	// gcMu serializes GC passes (Put-overflow, periodic, explicit).
	gcMu sync.Mutex
}

// Dir layout. Entry files are immutable once renamed into place; the
// per-entry touch file is the one mutable sidecar — a zero-byte file
// whose mtime is the entry's last access time, so LRU eviction never
// rewrites (or even reads) the content-addressed objects themselves.
// Quarantined entries move whole into quarantine/ and are clean misses.
const (
	manifestName  = "MANIFEST.tvs"
	objectsDir    = "objects"
	tmpDir        = "tmp"
	quarantineDir = "quarantine"
	entrySuffix   = ".tve"
	touchSuffix   = ".tvt"
	reasonSuffix  = ".reason"
	stagingSuffix = ".staging" // a quarantined entry before it is counted
)

// Open opens (creating if needed) the store at dir. The metrics registry
// receives the store.* counters; nil drops them.
func Open(dir string, m *telemetry.Metrics) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, objectsDir), filepath.Join(dir, tmpDir)} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %v", err)
		}
	}
	s := &Store{dir: dir, metrics: m}
	if err := s.ensureManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// Dir returns the store directory path.
func (s *Store) Dir() string { return s.dir }

// entryPath fans entries out under a two-hex-digit prefix directory so
// one flat directory never holds the whole corpus.
func (s *Store) entryPath(k Key) string {
	hx := k.Hex()
	return filepath.Join(s.dir, objectsDir, hx[:2], hx+entrySuffix)
}

// touchPath is the entry's access-time sidecar (see the layout comment).
func (s *Store) touchPath(k Key) string {
	hx := k.Hex()
	return filepath.Join(s.dir, objectsDir, hx[:2], hx+touchSuffix)
}

// touch stamps k's access time to now, best effort: a failed touch
// costs LRU accuracy, never correctness.
func (s *Store) touch(k Key) {
	p := s.touchPath(k)
	now := time.Now()
	if err := os.Chtimes(p, now, now); err != nil {
		_ = os.WriteFile(p, nil, 0o644)
	}
}

// Get returns the entry stored under k. Any defect — missing file,
// truncation, checksum mismatch, unknown future format version — is a
// clean miss: the caller re-validates, and the corresponding store.*
// counter records why. A hit refreshes the entry's access time (the
// LRU clock GC evicts by).
func (s *Store) Get(k Key) (*Entry, bool) {
	e, err := s.Peek(k)
	if err != nil {
		if !os.IsNotExist(err) {
			if isBadVersion(err) {
				s.metrics.Add(MetricBadVersion, 1)
			} else {
				s.metrics.Add(MetricCorrupt, 1)
			}
		}
		s.metrics.Add(MetricMiss, 1)
		return nil, false
	}
	s.touch(k)
	s.metrics.Add(MetricHit, 1)
	return e, true
}

// Peek reads and decodes the entry under k without bumping hit/miss
// counters and without refreshing its access time — the read the
// scrubber and offline verification use, so integrity passes never
// distort the LRU order. A missing entry surfaces as os.IsNotExist.
func (s *Store) Peek(k Key) (*Entry, error) {
	data, err := os.ReadFile(s.entryPath(k))
	if err != nil {
		return nil, err
	}
	return decodeEntry(data)
}

// Contains reports whether a well-formed entry exists under k, without
// touching the hit/miss counters or the access time.
func (s *Store) Contains(k Key) bool {
	_, err := s.Peek(k)
	return err == nil
}

// Put stores e under k, atomically and durably: the encoded entry is
// written to a private temp file, fsynced, and renamed into place, and
// the prefix directory is fsynced after the rename — so concurrent
// readers see either the old entry or the new one, never a torn write,
// and a power cut after Put returns cannot surface a torn entry (the
// rename is only durable once both the file contents and the directory
// entry are). A crash mid-Put leaves only an ignorable temp file.
//
// When a byte budget is configured (SetMaxBytes) and this Put pushes
// usage past it, Put runs a synchronous LRU GC before returning, so the
// store never stays over budget between Puts.
func (s *Store) Put(k Key, e *Entry) error {
	data, err := encodeEntry(e)
	if err != nil {
		return err
	}
	dst := s.entryPath(k)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	tmp := filepath.Join(s.dir, tmpDir,
		fmt.Sprintf("put-%d-%d%s", os.Getpid(), s.tmpSeq.Add(1), entrySuffix))
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %v", err)
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %v", err)
	}
	syncDir(filepath.Dir(dst))
	s.touch(k)
	s.metrics.Add(MetricPut, 1)
	s.metrics.Add(MetricPutBytes, int64(len(data)))
	if max := s.maxBytes.Load(); max > 0 && s.curBytes.Add(int64(len(data))) > max {
		s.GC(max)
	}
	return nil
}

// writeFileSync writes data to path and fsyncs it before returning —
// the "contents durable before the rename publishes them" half of the
// crash-safety contract.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed entry survives a power
// cut. Best effort: filesystems that cannot sync directories still get
// the file-content sync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// SetMaxBytes configures the store's byte budget: the total size of
// entry payloads Put keeps the store under (0 disables the bound). The
// current usage gauge is initialized by walking the object tree once.
func (s *Store) SetMaxBytes(n int64) {
	s.maxBytes.Store(n)
	if n > 0 {
		s.curBytes.Store(s.Usage())
	}
}

// MaxBytes returns the configured byte budget (0 = unbounded).
func (s *Store) MaxBytes() int64 { return s.maxBytes.Load() }

// Usage walks the object tree and sums entry payload sizes in bytes.
// Touch sidecars are zero bytes and do not count against the budget.
func (s *Store) Usage() int64 {
	var total int64
	_ = filepath.WalkDir(filepath.Join(s.dir, objectsDir), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, entrySuffix) {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

// Len walks the object tree and counts entry files (well-formed or not;
// it is a size gauge, not an integrity pass).
func (s *Store) Len() int {
	n := 0
	_ = filepath.WalkDir(filepath.Join(s.dir, objectsDir), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, entrySuffix) {
			n++
		}
		return nil
	})
	return n
}

// MaterializeEntry writes the entry's artifacts into dir — the
// store-backed proof-directory path: together with the artifacts of the
// other served functions and a MANIFEST.json, the result is a directory
// cmd/proofcheck verifies exactly like a freshly emitted one.
func MaterializeEntry(dir string, e *Entry) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	for _, a := range e.Artifacts {
		if !safeArtifactName(a.Name) {
			return fmt.Errorf("store: refusing to materialize artifact with unsafe name %q", a.Name)
		}
		if err := os.WriteFile(filepath.Join(dir, a.Name), a.Data, 0o644); err != nil {
			return fmt.Errorf("store: %v", err)
		}
	}
	return nil
}

// safeArtifactName rejects names that could escape the target directory.
// Entry artifacts are named by this package's own writers, so anything
// else is corruption or tampering.
func safeArtifactName(name string) bool {
	if name == "" || name == "." || name == ".." {
		return false
	}
	return !strings.ContainsAny(name, "/\\\x00")
}

// ensureManifest validates an existing store manifest or creates one:
// written to a temp file, fsynced, renamed into place, and the directory
// fsynced — the durability point of store creation.
func (s *Store) ensureManifest() error {
	path := filepath.Join(s.dir, manifestName)
	if data, err := os.ReadFile(path); err == nil {
		return checkManifest(data)
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("store: %v", err)
	}
	data := encodeManifest()
	tmp := filepath.Join(s.dir, tmpDir, fmt.Sprintf("manifest-%d", os.Getpid()))
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: %v", err)
	}
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %v", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %v", err)
	}
	if d, err := os.Open(s.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}
