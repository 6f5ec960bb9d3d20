package nn

import "testing"

// Int8 counterparts of BenchmarkBatchForwardDense32/Conv32: same models,
// same batch-32 block, quantized engine. BENCH_kernels.json records the
// speedup_vs_float of each pair.

func BenchmarkQuantForwardDense32(b *testing.B) {
	m := benchDenseModel(b)
	q, err := Quantize(m)
	if err != nil {
		b.Fatal(err)
	}
	xb := benchBlock(32, m.InputLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.forwardBatch(xb, 32)
	}
}

func BenchmarkQuantForwardConv32(b *testing.B) {
	m := benchConvModel(b)
	q, err := Quantize(m)
	if err != nil {
		b.Fatal(err)
	}
	xb := benchBlock(32, m.InputLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.forwardBatch(xb, 32)
	}
}
