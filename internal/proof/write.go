package proof

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// File suffixes of the per-function artifacts.
const (
	CertsSuffix   = ".certs.json"
	DratSuffix    = ".drat"
	WitnessSuffix = ".witness.json"
	TermsSuffix   = ".terms.jsonl"
	ManifestName  = "MANIFEST.json"
)

// FileBase returns the sanitized per-function artifact base name.
func FileBase(function string) string {
	b := []byte(function)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
		default:
			b[i] = '_'
		}
	}
	return string(b)
}

// writeWitness writes the compressed <fn>.witness.json. Call it only
// for functions whose validation succeeded: the witness of a failed run
// is not a bisimulation witness.
func writeWitness(dir string, rec *Recorder) (int64, error) {
	data, err := json.Marshal(rec.WitnessFile())
	if err != nil {
		return 0, err
	}
	return writeDeflated(filepath.Join(dir, FileBase(rec.function))+WitnessSuffix, append(data, '\n'))
}

// writeDeflated writes data to path in the compressed-JSON container
// and returns the bytes written.
func writeDeflated(path string, data []byte) (int64, error) {
	zdata, err := deflateJSON(data)
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(path, zdata, 0o644); err != nil {
		return 0, err
	}
	return int64(len(zdata)), nil
}

// WriteManifest stamps m with the format version and writes it as
// MANIFEST.json for a corpus run.
func WriteManifest(dir string, m *Manifest) error {
	m.Schema = Schema
	data, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), append(data, '\n'), 0o644)
}

// ReadManifest loads MANIFEST.json from dir; it returns (nil, nil) when
// the file does not exist (single-file runs write no manifest).
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("proof: bad manifest: %v", err)
	}
	return &m, nil
}
