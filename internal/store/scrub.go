package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/proof"
)

// Scrub metric names. store.scrub.quarantined is the one the operator
// alerts on: a nonzero rate means entries are rotting on disk.
const (
	MetricScrubScanned     = "store.scrub.scanned"
	MetricScrubVerified    = "store.scrub.verified"
	MetricScrubQuarantined = "store.scrub.quarantined"
	MetricScrubBadVersion  = "store.scrub.badversion"
	MetricScrubRounds      = "store.scrub.rounds"
)

// ScrubConfig shapes one scrub pass.
type ScrubConfig struct {
	// Fraction in [0,1] is the share of intact entries re-verified end
	// to end (materialize -> proof.CheckDir) on top of the decode and
	// CRC check every scanned entry gets. 0 scrubs structure only; 1
	// replays every certificate.
	Fraction float64
	// Verify overrides the end-to-end check (tests, custom policies);
	// nil uses VerifyEntry — the cmd/proofcheck core.
	Verify func(*Entry) error
}

// ScrubStats reports one scrub pass (or the running totals of a
// background scrubber round).
type ScrubStats struct {
	// Scanned entries were read and decode/CRC-checked.
	Scanned int
	// BadVersion entries carry a future format version: unreadable by
	// this binary but not damaged, so they are skipped, not quarantined.
	BadVersion int
	// Verified entries were additionally re-checked end to end.
	Verified int
	// Quarantined entries failed (corrupt encoding, CRC mismatch, or
	// certificate rejection) and were moved under quarantine/.
	Quarantined int
}

// Keys lists every entry key currently in the object tree, in
// deterministic (hex-lexicographic) order. Files with non-key names are
// ignored.
func (s *Store) Keys() []Key {
	var keys []Key
	_ = filepath.WalkDir(filepath.Join(s.dir, objectsDir), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, entrySuffix) {
			return nil
		}
		hx := strings.TrimSuffix(filepath.Base(path), entrySuffix)
		if k, kerr := KeyFromHex(hx); kerr == nil {
			keys = append(keys, k)
		}
		return nil
	})
	sort.Slice(keys, func(i, j int) bool { return keys[i].Hex() < keys[j].Hex() })
	return keys
}

// QuarantineLen counts quarantined entries.
func (s *Store) QuarantineLen() int {
	n := 0
	_ = filepath.WalkDir(filepath.Join(s.dir, quarantineDir), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, entrySuffix) {
			n++
		}
		return nil
	})
	return n
}

// Quarantine moves k's entry out of the object tree into quarantine/,
// recording why in a sidecar <key>.reason file. From this moment the
// key is a clean miss: the next Get re-validates and a fresh Put simply
// writes a new object. The damaged bytes are preserved (not deleted)
// for the operator's post-mortem.
//
// The entry is first staged under a name QuarantineLen does not count,
// then the counter is bumped, then the final rename publishes it: anyone
// who sees the entry in QuarantineLen also sees it in the counter.
func (s *Store) Quarantine(k Key, reason string) error {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	hx := k.Hex()
	staged := filepath.Join(qdir, hx+stagingSuffix)
	if err := os.Rename(s.entryPath(k), staged); err != nil {
		return fmt.Errorf("store: %v", err)
	}
	os.Remove(s.touchPath(k))
	s.metrics.Add(MetricScrubQuarantined, 1)
	if err := os.Rename(staged, filepath.Join(qdir, hx+entrySuffix)); err != nil {
		s.metrics.Add(MetricScrubQuarantined, -1)
		return fmt.Errorf("store: %v", err)
	}
	_ = os.WriteFile(filepath.Join(qdir, hx+reasonSuffix),
		[]byte(time.Now().UTC().Format(time.RFC3339)+" "+reason+"\n"), 0o644)
	return nil
}

// EntryDir writes e's artifacts and a one-row MANIFEST.json into a new
// temporary directory and returns its path, ready for proof.CheckDir.
// An entry's artifact set is self-contained, so it checks in isolation.
// The caller removes the directory.
func EntryDir(e *Entry) (string, error) {
	dir, err := os.MkdirTemp("", "store-entry-")
	if err != nil {
		return "", fmt.Errorf("store: %v", err)
	}
	err = MaterializeEntry(dir, e)
	if err == nil {
		err = proof.WriteManifest(dir, &proof.Manifest{
			Functions: []proof.ManifestRow{{
				Name: e.Meta.Function, Class: e.Meta.Class, Certified: e.Meta.Certified,
			}},
		})
	}
	if err != nil {
		os.RemoveAll(dir)
		return "", err
	}
	return dir, nil
}

// VerifyEntry re-checks one decoded entry end to end with the
// cmd/proofcheck core: the entry is written out by EntryDir and
// replayed by proof.CheckDir — DRAT traces by reverse unit propagation,
// models by re-evaluation, witnesses structurally. It returns nil only
// when every certificate verifies; the scrubber quarantines on anything
// else.
func VerifyEntry(e *Entry) error {
	dir, err := EntryDir(e)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	report, err := proof.CheckDir(dir)
	if err != nil {
		return err
	}
	if len(report.Rejections) > 0 {
		return fmt.Errorf("%d certificate rejections, first: %s",
			len(report.Rejections), report.Rejections[0])
	}
	return nil
}

// scrubKeys scans the given keys: every entry is re-read and
// decode/CRC-checked via Peek, a Fraction of the intact ones are
// re-verified end to end, and failures are quarantined. acc carries the
// fractional-verification accumulator across rounds so a long-running
// scrubber converges on exactly the configured fraction. Access times
// are never touched (Peek), so scrubbing cannot distort LRU order.
func (s *Store) scrubKeys(keys []Key, cfg ScrubConfig, acc *float64) ScrubStats {
	verify := cfg.Verify
	if verify == nil {
		verify = VerifyEntry
	}
	var st ScrubStats
	for _, k := range keys {
		e, err := s.Peek(k)
		switch {
		case os.IsNotExist(err):
			// Evicted or quarantined since the key list was taken.
			continue
		case err != nil && isBadVersion(err):
			st.Scanned++
			st.BadVersion++
			s.metrics.Add(MetricScrubBadVersion, 1)
			continue
		case err != nil:
			st.Scanned++
			if s.Quarantine(k, fmt.Sprintf("scrub: %v", err)) == nil {
				st.Quarantined++
			}
			continue
		}
		st.Scanned++
		*acc += cfg.Fraction
		if *acc >= 1 {
			*acc--
			st.Verified++
			if err := verify(e); err != nil {
				if s.Quarantine(k, fmt.Sprintf("scrub verify: %v", err)) == nil {
					st.Quarantined++
				}
			}
		}
	}
	s.metrics.Add(MetricScrubScanned, int64(st.Scanned))
	s.metrics.Add(MetricScrubVerified, int64(st.Verified))
	return st
}

// ScrubOnce scrubs every entry in the store in one pass — the offline
// operator mode behind `tvd -scrub-once` and the integrity half of
// `proofcheck -store -all`.
func (s *Store) ScrubOnce(cfg ScrubConfig) ScrubStats {
	var acc float64
	st := s.scrubKeys(s.Keys(), cfg, &acc)
	s.metrics.Add(MetricScrubRounds, 1)
	return st
}

// ScrubberConfig sizes the background scrubber.
type ScrubberConfig struct {
	ScrubConfig
	// Interval is the pause between rounds (default 1m). The scrubber
	// runs on its own goroutine and never blocks admission: validation
	// traffic sees at most the I/O contention of a paced read.
	Interval time.Duration
	// Sample is how many entries one round examines (default 32). The
	// cursor persists across rounds, so the scrubber circles the whole
	// key space regardless of store size.
	Sample int
}

// Scrubber is a paced background integrity pass over the store. Create
// with StartScrubber; Close stops the goroutine and waits for it.
type Scrubber struct {
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// StartScrubber launches the background scrubber. Each round samples
// cfg.Sample entries (continuing round-robin from the previous round's
// cursor), decode/CRC-checks them, re-verifies cfg.Fraction of them end
// to end, quarantines failures, then sleeps cfg.Interval.
func (s *Store) StartScrubber(cfg ScrubberConfig) *Scrubber {
	if cfg.Interval <= 0 {
		cfg.Interval = time.Minute
	}
	if cfg.Sample <= 0 {
		cfg.Sample = 32
	}
	sc := &Scrubber{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(sc.done)
		cursor := ""
		var acc float64
		for {
			keys := s.Keys()
			batch := nextAfter(keys, cursor, cfg.Sample)
			if len(batch) > 0 {
				cursor = batch[len(batch)-1].Hex()
				s.scrubKeys(batch, cfg.ScrubConfig, &acc)
			} else {
				cursor = ""
			}
			s.metrics.Add(MetricScrubRounds, 1)
			select {
			case <-sc.stop:
				return
			case <-time.After(cfg.Interval):
			}
		}
	}()
	return sc
}

// Close stops the scrubber and waits for the in-flight round to finish.
// Idempotent.
func (sc *Scrubber) Close() {
	sc.once.Do(func() { close(sc.stop) })
	<-sc.done
}

// nextAfter returns up to n keys following cursor in hex order,
// wrapping to the start of the key space when the tail is shorter than
// n — the round-robin window the background scrubber walks.
func nextAfter(keys []Key, cursor string, n int) []Key {
	if len(keys) == 0 {
		return nil
	}
	start := sort.Search(len(keys), func(i int) bool { return keys[i].Hex() > cursor })
	if n >= len(keys) {
		n = len(keys)
	}
	out := make([]Key, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, keys[(start+i)%len(keys)])
	}
	return out
}
