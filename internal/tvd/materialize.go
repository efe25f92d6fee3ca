package tvd

import (
	"repro/internal/proof"
	"repro/internal/store"
)

// MaterializeProofs writes the batch's certificate artifacts into dir
// as a proofcheck-able directory: every row's artifact files plus a
// MANIFEST.json recording each function's class and certification. The
// rows must have been requested with BatchRequest.Proofs. Store-served
// rows materialize their stored artifacts, so a fully warm batch still
// produces a directory cmd/proofcheck verifies from scratch — the
// certified-by-reference path.
func MaterializeProofs(dir string, result *BatchResult) error {
	var manifest proof.Manifest
	for _, row := range result.Rows {
		arts := make([]store.Artifact, 0, len(row.Artifacts))
		for _, a := range row.Artifacts {
			arts = append(arts, store.Artifact{Name: a.Name, Data: a.Data})
		}
		if err := store.MaterializeEntry(dir, &store.Entry{Artifacts: arts}); err != nil {
			return err
		}
		manifest.Functions = append(manifest.Functions, proof.ManifestRow{
			Name: row.Fn, Class: row.Class, Certified: row.Certified,
		})
	}
	return proof.WriteManifest(dir, &manifest)
}
