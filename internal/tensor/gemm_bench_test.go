package tensor

import (
	"testing"

	"specml/internal/rng"
)

// Benchmark shapes mirror the serve hot path: a coalesced batch of 32
// spectra through the demo dense stack (199 -> 32), and the Table-1 MS
// convolution lowered by im2col (batch 32, 976 positions x 25-wide kernel
// against 20 filters collapses to one 31232 x 25 x 20 GEMM).

func benchMats(m, n, k int) (a, b, c []float64) {
	src := rng.New(99)
	a = make([]float64, m*k)
	b = make([]float64, k*n)
	c = make([]float64, m*n)
	fillRand(src, a)
	fillRand(src, b)
	return
}

func BenchmarkGemm32x199x32(b *testing.B) {
	m, n, k := 32, 32, 199
	am, bm, cm := benchMats(m, n, k)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(cm, am, bm, m, n, k, n, k)
	}
}

func BenchmarkGemmNTConvLowered(b *testing.B) {
	// batch 32 x outLen 976 rows, fanIn 25, 20 filters (MS CNN layer 1).
	m, n, k := 32*976, 20, 25
	am := make([]float64, m*k)
	bm := make([]float64, n*k)
	cm := make([]float64, m*n)
	src := rng.New(100)
	fillRand(src, am)
	fillRand(src, bm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmNT(cm, am, bm, m, n, k)
	}
}

func BenchmarkGemmTNWeightGrad(b *testing.B) {
	// dW += dYᵀ·X for the demo dense layer over a batch of 32.
	m, n, k := 32, 199, 32
	am := make([]float64, k*m)
	bm := make([]float64, k*n)
	cm := make([]float64, m*n)
	src := rng.New(101)
	fillRand(src, am)
	fillRand(src, bm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmTN(cm, am, bm, m, n, k, 0, m, nil)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	inLen, inCh, kernel, stride := 2000, 1, 25, 2
	outLen := (inLen-kernel)/stride + 1
	x := make([]float64, inLen*inCh)
	src := rng.New(102)
	fillRand(src, x)
	dst := make([]float64, outLen*kernel*inCh)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(dst, x, inLen, inCh, kernel, stride, outLen)
	}
}

// The Table-1 MS CNN at its training shapes (199-point spectra, batch 32):
// conv layer 3 (25 input channels, kernel 20, stride 3, 25 filters) lowers
// to 1728 im2col rows of fanIn 500. The Table-2 LSTM input projection maps
// 32 windows x 5 steps of 1700 points onto 4 x 32 gate rows.

func benchGemmNT(b *testing.B, m, n, k int) {
	am, bm, cm := make([]float64, m*k), make([]float64, n*k), make([]float64, m*n)
	src := rng.New(103)
	fillRand(src, am)
	fillRand(src, bm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmNT(cm, am, bm, m, n, k)
	}
	b.ReportMetric(2*float64(m*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkGemmNTTable1Conv3(b *testing.B) { benchGemmNT(b, 1728, 25, 500) }

func BenchmarkGemmNTLSTMInput(b *testing.B) { benchGemmNT(b, 160, 128, 1700) }

// BenchmarkGemmNTLSTMRecurrent is one training timestep's recurrent term
// (32 samples x 32 units onto 128 gate rows), and BenchmarkGemmNTLSTMMonitor
// the input projection of one serve-monitor step (5 steps of 1700 points).
func BenchmarkGemmNTLSTMRecurrent(b *testing.B) { benchGemmNT(b, 32, 128, 32) }

func BenchmarkGemmNTLSTMMonitor(b *testing.B) { benchGemmNT(b, 5, 128, 1700) }

func BenchmarkGemmTNTable1Conv3(b *testing.B) {
	// dW (25 x 500) += dYᵀ (25 x 1728) · col (1728 x 500), ReLU-style
	// sparse output gradients included.
	m, n, k := 25, 500, 1728
	am, bm, cm := make([]float64, k*m), make([]float64, k*n), make([]float64, m*n)
	src := rng.New(104)
	fillRand(src, am)
	fillRand(src, bm)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmTN(cm, am, bm, m, n, k, 0, m, nil)
	}
	b.ReportMetric(2*float64(m*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// benchGemmTNLevels runs GemmTN at one weight-gradient shape once per
// dispatch level the host has (sub-benchmarks go, avx2, avx512). A holds
// about 20% exact zeros, like a ReLU-sparse gradient; ordered takes the
// k rows in the LSTM's sample-ascending, timestep-descending order.
func benchGemmTNLevels(b *testing.B, m, n, k int, ordered bool) {
	src := rng.New(105)
	am, bm, cm := make([]float64, k*m), make([]float64, k*n), make([]float64, m*n)
	fillRand(src, am)
	fillRand(src, bm)
	order := tnOrder(src, 0, k)
	if ordered {
		order = tnOrder(src, 3, k)
	}
	for _, l := range hostLevels() {
		withLevel(l, func() {
			b.Run(levelNames[l], func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					GemmTN(cm, am, bm, m, n, k, 0, m, order)
				}
				b.ReportMetric(2*float64(m*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		})
	}
}

// The Table-2 LSTM's weight gradients at batch 32 x 5 steps: Wx (4 x 32
// gate rows by 1700 features) and Wh (by 32 units).
func BenchmarkGemmTNLSTMWx(b *testing.B) { benchGemmTNLevels(b, 128, 1700, 160, true) }

func BenchmarkGemmTNLSTMWh(b *testing.B) { benchGemmTNLevels(b, 128, 32, 160, true) }

// The Table-1 conv layers 1 (25 filters x fanIn 20 over 32 x 180 windows)
// and 3 (25 x 500 over 32 x 54) at batch 32.
func BenchmarkGemmTNTable1Conv1Levels(b *testing.B) { benchGemmTNLevels(b, 25, 20, 5760, false) }

func BenchmarkGemmTNTable1Conv3Levels(b *testing.B) { benchGemmTNLevels(b, 25, 500, 1728, false) }

// benchGemmNTLevels runs GemmNT at one forward shape once per dispatch
// level the host has (sub-benchmarks go, avx2, avx512).
func benchGemmNTLevels(b *testing.B, m, n, k int) {
	am, bm, cm := make([]float64, m*k), make([]float64, n*k), make([]float64, m*n)
	src := rng.New(107)
	fillRand(src, am)
	fillRand(src, bm)
	for _, l := range hostLevels() {
		withLevel(l, func() {
			b.Run(levelNames[l], func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					GemmNT(cm, am, bm, m, n, k)
				}
				b.ReportMetric(2*float64(m*n*k)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		})
	}
}

// The Table-1 conv forwards at batch 32: conv 1 (32 x 180 windows of
// fanIn 20), conv 3 (32 x 54 of 500) and conv 5 (32 x 20 of 375), each
// against 25 filters.
func BenchmarkGemmNTTable1Conv1Levels(b *testing.B) { benchGemmNTLevels(b, 5760, 25, 20) }

func BenchmarkGemmNTTable1Conv3Levels(b *testing.B) { benchGemmNTLevels(b, 1728, 25, 500) }

func BenchmarkGemmNTTable1Conv5Levels(b *testing.B) { benchGemmNTLevels(b, 640, 25, 375) }

// BenchmarkAxpy4Conv1Row is one axpy4 call at the Table-1 conv 1 row
// length (fanIn 20): the fixed per-call cost of the dispatch gate and the
// kernel call, next to 80 multiply-adds.
func BenchmarkAxpy4Conv1Row(b *testing.B) {
	src := rng.New(106)
	y, x := make([]float64, 20), make([]float64, 80)
	fillRand(src, y)
	fillRand(src, x)
	for _, l := range hostLevels() {
		withLevel(l, func() {
			b.Run(levelNames[l], func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					axpy4(y, 0.5, x[0:20], -0.25, x[20:40], 0.125, x[40:60], 1e-3, x[60:80])
				}
			})
		})
	}
}
