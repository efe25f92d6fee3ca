package proof_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/proof"
)

// BenchmarkSessionChecker replays the largest DRAT trace of a small
// certified corpus run: every step in trace order on one checker per
// session, each obligation discharged at its recorded position, as
// CheckDir does. It isolates the RUP engine from file decoding.
func BenchmarkSessionChecker(b *testing.B) {
	dir, _ := emitProofDir(b)
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var largest string
	var size int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && strings.HasSuffix(e.Name(), proof.DratSuffix) && info.Size() > size {
			largest, size = filepath.Join(dir, e.Name()), info.Size()
		}
	}
	if largest == "" {
		b.Fatal("corpus run wrote no DRAT trace")
	}
	data, err := os.ReadFile(largest)
	if err != nil {
		b.Fatal(err)
	}
	steps := decodeDrat(data)
	due := map[[2]int][]dratCheckpoint{} // (session, position) → obligations
	for _, cp := range dratFinals(b, strings.TrimSuffix(largest, proof.DratSuffix)+proof.CertsSuffix) {
		due[[2]int{cp.sess, cp.pos}] = append(due[[2]int{cp.sess, cp.pos}], cp)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		checkers := map[int]*proof.SessionChecker{}
		pos := map[int]int{}
		discharge := func(sess int) {
			for _, cp := range due[[2]int{sess, pos[sess]}] {
				if err := checkers[sess].CheckFinal(cp.final); err != nil {
					b.Fatal(err)
				}
			}
		}
		for _, s := range steps {
			ck := checkers[s.sess]
			if ck == nil {
				ck = proof.NewSessionChecker()
				checkers[s.sess] = ck
			}
			discharge(s.sess)
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
				b.Fatal(err)
			}
			pos[s.sess]++
		}
		for sess := range checkers {
			discharge(sess)
		}
	}
	b.ReportMetric(float64(len(steps)), "steps/op")
}

// BenchmarkCheckDir verifies a small certified corpus run end to end.
func BenchmarkCheckDir(b *testing.B) {
	dir, _ := emitProofDir(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := proof.CheckDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		if len(report.Rejections) > 0 {
			b.Fatal(report.Rejections[0])
		}
	}
}
