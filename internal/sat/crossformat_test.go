package sat_test

// Certificate-container check over the differential CNF suite: every
// Unsat verdict's in-memory proof log, serialized into the binary DRAT
// container and walked back, must replay every step and RUP-verify the
// refutation — a shortfall would mean the container drops or distorts
// steps.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/proof"
	"repro/internal/sat"
)

// encodeBinary serializes the proof log as a single-session binary
// container.
func encodeBinary(t *testing.T, log *sat.ProofLog) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := proof.NewBinWriter(&buf)
	for i := 0; i < log.Len(); i++ {
		op, lits := log.Step(i)
		d := make([]int32, len(lits))
		for j, l := range lits {
			d[j] = dimacs(l)
		}
		if err := bw.Step(0, op, d); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayEncoded walks an encoded trace through a fresh RUP checker and
// returns the step count and the final empty-clause verdict.
func replayEncoded(t *testing.T, data []byte) (steps int, err error) {
	t.Helper()
	ck := proof.NewSessionChecker()
	werr := proof.WalkDrat(bytes.NewReader(data), func(sess int, op byte, lits []int32) error {
		steps++
		switch op {
		case sat.OpInput:
			return ck.AddInput(lits)
		case sat.OpLearn:
			return ck.AddLearnt(lits)
		case sat.OpDelete:
			return ck.Delete(lits)
		}
		return fmt.Errorf("unknown opcode %q", op)
	})
	if werr != nil {
		return steps, werr
	}
	return steps, ck.CheckFinal(nil)
}

func TestDifferentialCrossFormatDrat(t *testing.T) {
	rng := rand.New(rand.NewSource(0xD1FF))
	unsat := 0
	for iter := 0; iter < 300; iter++ {
		nvars := 3 + rng.Intn(6)
		clauses := randomCNF(rng, nvars)
		s := newLoggedSolver(nvars, clauses)
		if s.Solve() == sat.Sat {
			continue
		}
		unsat++
		steps, err := replayEncoded(t, encodeBinary(t, s.Proof))
		if err != nil {
			t.Fatalf("iter %d: refutation did not verify: %v\ncnf: %v", iter, err, clauses)
		}
		if steps != s.Proof.Len() {
			t.Fatalf("iter %d: log has %d steps, binary container replayed %d", iter, s.Proof.Len(), steps)
		}
	}
	if unsat < 20 {
		t.Fatalf("only %d unsat instances — suite too small to be meaningful", unsat)
	}
}
