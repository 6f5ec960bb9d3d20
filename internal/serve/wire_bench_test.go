package serve

import (
	"encoding/json"
	"testing"
)

// The wire-codec benchmarks quantify the SPB1 binary format against JSON
// on the serving hot path's measured fat: decoding a 4096-point spectrum
// (a high-resolution NMR trace; the fixed-width vectors of the related
// work are 1600-10k points). These numbers are recorded in
// BENCH_serve.json.

func wireBenchRequest() *PredictRequest {
	return &PredictRequest{
		Model:       "ms-demo",
		Axis:        &Axis{Start: 0, Step: 0.25},
		Intensities: ramp(4096, 3),
	}
}

func BenchmarkWireDecode4096(b *testing.B) {
	req := wireBenchRequest()
	jsonBody, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	binBody, err := AppendPredictRequestBinary(nil, req)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("body bytes: json %d, binary %d", len(jsonBody), len(binBody))

	b.Run("codec=json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(jsonBody)))
		for i := 0; i < b.N; i++ {
			var out PredictRequest
			if err := json.Unmarshal(jsonBody, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec=binary", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(binBody)))
		for i := 0; i < b.N; i++ {
			if _, err := ParsePredictRequestBinary(binBody); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWireEncode4096(b *testing.B) {
	req := wireBenchRequest()

	b.Run("codec=json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec=binary", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]byte, 0, 8*len(req.Intensities)+64)
		for i := 0; i < b.N; i++ {
			if _, err := AppendPredictRequestBinary(buf[:0], req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
