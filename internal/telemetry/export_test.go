package telemetry

import (
	"errors"
	"io"
	"runtime"
)

// PerfettoCanonical exposes ValidatePerfetto's fast path to the
// external tests, which export a live fleet cluster (internal/sweep
// imports this package).
var PerfettoCanonical = perfettoCanonical

// WriteJSONChunks, WritePerfettoChunks and ReadManifestParts are
// WriteJSON, WritePerfetto and ReadManifest's fast path at the current
// GOMAXPROCS, also returning how many chunks the chunk runner cut the
// span list into and how many parts the split reader read it in.
func WriteJSONChunks(w io.Writer, m *Manifest) (int, error) {
	return m.writeJSON(w, spanChunk, runtime.GOMAXPROCS(0))
}

func WritePerfettoChunks(w io.Writer, m *Manifest) (int, error) {
	return writePerfetto(w, m, spanChunk, runtime.GOMAXPROCS(0))
}

func ReadManifestParts(data []byte) (*Manifest, int, error) {
	m := new(Manifest)
	parts, ok := readCanonical(data, m, runtime.GOMAXPROCS(0), minChunks*spanChunk)
	if !ok {
		return nil, 0, errors.New("telemetry: the fast path refused the manifest")
	}
	return m, parts, ValidateManifest(m)
}
