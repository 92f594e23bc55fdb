package telemetry

import (
	"bytes"
	"io"
	"testing"
	"unsafe"
)

// The artifact path's four layers over one synthetic cluster: 50 000
// spans across 24 nodes and a coordinator, the shape (not the size) of
// the cluster-manifest workload. allocs/op and B/op are gated by
// bench-smoke against BENCH_kernel.json; MB/s is reported.

const (
	benchSpans = 50000
	benchNodes = 24
)

func BenchmarkStitchCluster(b *testing.B) {
	coord, logs := syntheticLogs(benchSpans, benchNodes)
	m, err := StitchCluster(coord, logs)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(m.Spans)) * int64(unsafe.Sizeof(Span{})))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StitchCluster(coord, logs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkManifestWrite(b *testing.B) {
	m := syntheticCluster(benchSpans, benchNodes)
	var doc bytes.Buffer
	if err := m.WriteJSON(&doc); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkManifestRead(b *testing.B) {
	var doc bytes.Buffer
	if err := syntheticCluster(benchSpans, benchNodes).WriteJSON(&doc); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadManifest(bytes.NewReader(doc.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerfettoExport(b *testing.B) {
	m := syntheticCluster(benchSpans, benchNodes)
	var doc bytes.Buffer
	if err := WritePerfetto(&doc, m); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(doc.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := WritePerfetto(io.Discard, m); err != nil {
			b.Fatal(err)
		}
	}
}
