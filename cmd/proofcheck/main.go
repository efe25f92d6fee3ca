// Command proofcheck independently verifies a proof directory emitted by
// tv -emit-proofs (or keq -emit-proof): DRAT traces are replayed by
// reverse unit propagation, Sat models are re-evaluated against the
// original term DAGs, cache references are resolved against the verified
// certificate with the same canonical key, and each bisimulation witness
// is checked for structural well-formedness with every cited query
// verified.
//
// The checker deliberately shares no solving code with the validator: it
// imports only the certificate package (internal/proof) and the term
// layer (internal/term) — never the SAT or SMT solvers — so the trusted
// base of a certified run is this program plus the term evaluator.
//
// Usage:
//
//	proofcheck [-v] DIR
//	proofcheck [-v] -store DIR -key HASH
//	proofcheck [-v] -store DIR -all
//
// The second form verifies one entry of a tvd result store: the entry's
// certificate artifacts are materialized into a scratch directory
// together with a single-row manifest and checked exactly like a tv
// -emit-proofs directory. Store entries are written self-contained
// (each job gets a private certificate namespace), so one entry checks
// in isolation.
//
// The third form is the offline audit mode: every entry in the store is
// decoded, CRC-checked, and re-verified end to end, with one report
// line per entry. Reads never refresh access times, so an audit does
// not distort the store's LRU eviction order; entries written by a
// future binary are reported as skipped, not failed.
//
// Exit status 0 when every certificate and witness verifies, 1 when
// anything is rejected, 2 on usage or I/O errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/proof"
	"repro/internal/store"
)

func main() {
	verbose := flag.Bool("v", false, "list every rejection (default: first 20)")
	storeDir := flag.String("store", "", "verify an entry of this tvd result store instead of a proof directory")
	keyHex := flag.String("key", "", "content address (64 hex digits) of the store entry to verify")
	all := flag.Bool("all", false, "with -store: decode, CRC-check, and re-verify every entry in the store")
	flag.Parse()

	var dir, scratch string
	switch {
	case *storeDir != "" && *all:
		if flag.NArg() != 0 || *keyHex != "" {
			fmt.Fprintln(os.Stderr, "usage: proofcheck [-v] -store DIR -all")
			os.Exit(2)
		}
		os.Exit(checkWholeStore(*storeDir, *verbose))
	case *storeDir != "":
		if flag.NArg() != 0 || *keyHex == "" {
			fmt.Fprintln(os.Stderr, "usage: proofcheck [-v] -store DIR -key HASH")
			os.Exit(2)
		}
		dir = materializeStoreEntry(*storeDir, *keyHex)
		scratch = dir
	case flag.NArg() == 1 && *keyHex == "":
		dir = flag.Arg(0)
	default:
		fmt.Fprintln(os.Stderr, "usage: proofcheck [-v] DIR | proofcheck [-v] -store DIR [-key HASH | -all]")
		os.Exit(2)
	}
	code := checkDir(dir, *verbose)
	if scratch != "" {
		os.RemoveAll(scratch)
	}
	os.Exit(code)
}

// checkWholeStore audits every entry of a result store: decode +
// per-artifact CRC via Peek (access times untouched), then the same
// materialize-and-replay verification a single -key run performs. The
// return value is the process exit code.
func checkWholeStore(storeDir string, verbose bool) int {
	st, err := store.Open(storeDir, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "proofcheck:", err)
		return 2
	}
	keys := st.Keys()
	var verified, skipped int
	var failures []string
	for _, k := range keys {
		e, err := st.Peek(k)
		if err != nil {
			if os.IsNotExist(err) {
				continue // evicted since the key list was taken
			}
			if store.IsBadVersion(err) {
				skipped++
				fmt.Printf("skip %s: %v\n", k.Hex()[:12], err)
				continue
			}
			failures = append(failures, fmt.Sprintf("FAIL %s: %v", k.Hex()[:12], err))
			continue
		}
		if err := store.VerifyEntry(e); err != nil {
			failures = append(failures, fmt.Sprintf("FAIL %s (@%s %s): %v",
				k.Hex()[:12], e.Meta.Function, e.Meta.Class, err))
			continue
		}
		verified++
		if verbose {
			fmt.Printf("ok   %s @%s %s (certified=%t)\n",
				k.Hex()[:12], e.Meta.Function, e.Meta.Class, e.Meta.Certified)
		}
	}
	fmt.Printf("proofcheck: store %s: %d entries, %d verified, %d skipped (future version), %d failed\n",
		storeDir, len(keys), verified, skipped, len(failures))
	if q := st.QuarantineLen(); q > 0 {
		fmt.Printf("proofcheck: %d previously quarantined entries under quarantine/ (not audited)\n", q)
	}
	limit := len(failures)
	if !verbose && limit > 20 {
		limit = 20
	}
	for _, f := range failures[:limit] {
		fmt.Fprintln(os.Stderr, f)
	}
	if limit < len(failures) {
		fmt.Fprintf(os.Stderr, "... and %d more (use -v)\n", len(failures)-limit)
	}
	if len(failures) > 0 {
		return 1
	}
	return 0
}

// materializeStoreEntry extracts one store entry into a scratch proof
// directory (store.EntryDir), ready for CheckDir.
func materializeStoreEntry(storeDir, keyHex string) string {
	k, err := store.KeyFromHex(keyHex)
	if err != nil {
		fmt.Fprintln(os.Stderr, "proofcheck:", err)
		os.Exit(2)
	}
	st, err := store.Open(storeDir, nil)
	if err != nil {
		fmt.Fprintln(os.Stderr, "proofcheck:", err)
		os.Exit(2)
	}
	e, ok := st.Get(k)
	if !ok {
		fmt.Fprintf(os.Stderr, "proofcheck: store has no (intact) entry %s\n", keyHex)
		os.Exit(2)
	}
	dir, err := store.EntryDir(e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "proofcheck:", err)
		os.Exit(2)
	}
	fmt.Printf("store entry %s: @%s %s (certified=%t)\n",
		keyHex[:12], e.Meta.Function, e.Meta.Class, e.Meta.Certified)
	return dir
}

// checkDir replays dir and renders the report; the return value is the
// process exit code.
func checkDir(dir string, verbose bool) int {
	report, err := proof.CheckDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "proofcheck:", err)
		return 2
	}

	kinds := make([]string, 0, len(report.ByKind))
	for k := range report.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	fmt.Printf("proofcheck: %d functions, %d query certificates, %d trace steps, %d witnesses\n",
		report.Functions, report.Queries, report.Steps, report.Witnesses)
	for _, k := range kinds {
		fmt.Printf("  %-10s %d\n", k, report.ByKind[k])
	}

	if len(report.Rejections) == 0 {
		fmt.Println("OK: all certificates verified")
		return 0
	}
	limit := len(report.Rejections)
	if !verbose && limit > 20 {
		limit = 20
	}
	for _, r := range report.Rejections[:limit] {
		fmt.Fprintln(os.Stderr, "REJECTED:", r)
	}
	if limit < len(report.Rejections) {
		fmt.Fprintf(os.Stderr, "... and %d more (use -v)\n", len(report.Rejections)-limit)
	}
	fmt.Fprintf(os.Stderr, "proofcheck: %d rejections\n", len(report.Rejections))
	return 1
}
