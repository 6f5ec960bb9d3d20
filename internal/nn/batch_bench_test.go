package nn

import (
	"testing"

	"specml/internal/rng"
)

// The serve demo stack: dense 199 -> 32 -> 8 with a softmax head.
func benchDenseModel(b *testing.B) *Model {
	b.Helper()
	m := NewModel().
		Add(NewDense(32)).
		Add(NewActivation(ReLU)).
		Add(NewDense(8)).
		Add(NewSoftmax())
	if err := m.Build(rng.New(1), 199); err != nil {
		b.Fatal(err)
	}
	return m
}

// A Table-1-style MS conv stack at reduced width.
func benchConvModel(b *testing.B) *Model {
	b.Helper()
	m := NewModel().
		Add(NewReshape(500, 1)).
		Add(NewConv1D(20, 25, 2)).
		Add(NewActivation(ReLU)).
		Add(NewConv1D(15, 25, 3)).
		Add(NewActivation(ReLU)).
		Add(NewFlatten()).
		Add(NewDense(8)).
		Add(NewSoftmax())
	if err := m.Build(rng.New(2), 500); err != nil {
		b.Fatal(err)
	}
	return m
}

func benchBlock(n, width int) []float64 {
	src := rng.New(50)
	xb := make([]float64, n*width)
	for i := range xb {
		xb[i] = src.Uniform(-1, 1)
	}
	return xb
}

func BenchmarkBatchForwardDense32(b *testing.B) {
	m := benchDenseModel(b)
	xb := benchBlock(32, m.InputLen())
	m.SetTraining(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.forwardBatch(xb, 32)
	}
}

func BenchmarkBatchForwardDense32PerSample(b *testing.B) {
	m := benchDenseModel(b)
	inLen := m.InputLen()
	xb := benchBlock(32, inLen)
	m.SetTraining(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 32; s++ {
			m.Forward(xb[s*inLen : (s+1)*inLen])
		}
	}
}

func BenchmarkBatchForwardConv32(b *testing.B) {
	m := benchConvModel(b)
	xb := benchBlock(32, m.InputLen())
	m.SetTraining(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.forwardBatch(xb, 32)
	}
}

func BenchmarkBatchForwardConv32PerSample(b *testing.B) {
	m := benchConvModel(b)
	inLen := m.InputLen()
	xb := benchBlock(32, inLen)
	m.SetTraining(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 32; s++ {
			m.Forward(xb[s*inLen : (s+1)*inLen])
		}
	}
}

func BenchmarkBatchForwardBackwardConv32(b *testing.B) {
	m := benchConvModel(b)
	xb := benchBlock(32, m.InputLen())
	gb := benchBlock(32, m.OutputLen())
	m.SetTraining(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrad()
		m.forwardBatch(xb, 32)
		m.backwardBatch(gb, 32)
	}
}

func BenchmarkPredictBatch32(b *testing.B) {
	m := benchDenseModel(b)
	inLen := m.InputLen()
	block := benchBlock(32, inLen)
	rows := make([][]float64, 32)
	for i := range rows {
		rows[i] = block[i*inLen : (i+1)*inLen]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PredictBatch(rows, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFitEpochDenseBatched(b *testing.B) {
	m := benchDenseModel(b)
	const n = 256
	inLen, outLen := m.InputLen(), m.OutputLen()
	block := benchBlock(n, inLen)
	x := make([][]float64, n)
	y := make([][]float64, n)
	for i := range x {
		x[i] = block[i*inLen : (i+1)*inLen]
		y[i] = make([]float64, outLen)
		y[i][i%outLen] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Fit(x, y, FitConfig{Epochs: 1, BatchSize: 32, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// The Table-2 NMR monitor stack: 5x1700-point windows through LSTM(32) into
// a 4-component head — the 221,956-parameter model core.Monitor steps on
// every reactor tick.
func benchLSTMModel(b *testing.B) *Model {
	b.Helper()
	m := NewModel().
		Add(NewReshape(5, 1700)).
		Add(NewLSTM(32)).
		Add(NewDense(4))
	if err := m.Build(rng.New(3), 5*1700); err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkLSTMBatchForward32(b *testing.B) {
	m := benchLSTMModel(b)
	xb := benchBlock(32, m.InputLen())
	m.SetTraining(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.forwardBatch(xb, 32)
	}
}

func BenchmarkLSTMBatchForward32PerSample(b *testing.B) {
	m := benchLSTMModel(b)
	inLen := m.InputLen()
	xb := benchBlock(32, inLen)
	m.SetTraining(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for s := 0; s < 32; s++ {
			m.Forward(xb[s*inLen : (s+1)*inLen])
		}
	}
}

func BenchmarkLSTMBatchForwardBackward32(b *testing.B) {
	m := benchLSTMModel(b)
	xb := benchBlock(32, m.InputLen())
	gb := benchBlock(32, m.OutputLen())
	m.SetTraining(true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ZeroGrad()
		m.forwardBatch(xb, 32)
		m.backwardBatch(gb, 32)
	}
}

func BenchmarkLSTMFitEpoch(b *testing.B) {
	m := benchLSTMModel(b)
	const n = 128
	inLen, outLen := m.InputLen(), m.OutputLen()
	block := benchBlock(n, inLen)
	x := make([][]float64, n)
	y := make([][]float64, n)
	for i := range x {
		x[i] = block[i*inLen : (i+1)*inLen]
		y[i] = make([]float64, outLen)
		y[i][i%outLen] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Fit(x, y, FitConfig{Epochs: 1, BatchSize: 32, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvWindowGradTable1Conv3 times the overlapping-window input
// gradient of Table-1 conv layer 3 at batch 32 (180 x 25 input, kernel 20,
// stride 3, 25 filters, 54 positions): one one-row Gemm per sample and
// position, each adding 25 filter rows of 500 weights.
func BenchmarkConvWindowGradTable1Conv3(b *testing.B) {
	const n = 32
	c := NewConv1D(25, 20, 3)
	if _, err := c.Build(rng.New(3), []int{180, 25}); err != nil {
		b.Fatal(err)
	}
	g := benchBlock(n, c.outLen*c.Filters)
	c.bgin = make([]float64, n*c.inLen*c.inCh)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.inputGradSamples(g, 0, n)
	}
	flops := 2 * float64(n*c.outLen*c.Filters*c.Kernel*c.inCh)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkActivationBatch times a SELU layer over a 32 x 4500 block, the
// activation after Table-1 conv layer 1 (180 positions x 25 filters): the
// forward pass in training mode (values and derivatives) and in inference
// mode (values only), and the backward pass.
func BenchmarkActivationBatch(b *testing.B) {
	const n, width = 32, 4500
	l := NewActivation(SELU)
	if _, err := l.Build(nil, []int{width}); err != nil {
		b.Fatal(err)
	}
	x := benchBlock(n, width)
	g := benchBlock(n, width)
	l.ForwardBatch(x, n) // size the caches outside the timed loops
	for _, mode := range []struct {
		name  string
		infer bool
	}{{"forward-train", false}, {"forward-infer", true}} {
		b.Run(mode.name, func(b *testing.B) {
			l.SetInference(mode.infer)
			defer l.SetInference(false)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				l.ForwardBatch(x, n)
			}
		})
	}
	b.Run("backward", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			l.ForwardBatch(x, n)
			b.StartTimer()
			l.BackwardBatch(g, n)
		}
	})
}

// BenchmarkLSTMTrainBackward times the backward pass of a train-lstm step
// (batch 32, 5 x 1700 windows, LSTM(32) into a 4-output head) as training
// runs it, with the LSTM computing only its parameter gradients, and with
// the input gradient every layer's BackwardBatch computes.
func BenchmarkLSTMTrainBackward(b *testing.B) {
	m := benchLSTMModel(b)
	xb := benchBlock(32, m.InputLen())
	gb := benchBlock(32, m.OutputLen())
	for _, bw := range []struct {
		name string
		run  func()
	}{
		{"params-only", func() { m.backwardBatch(gb, 32) }},
		{"with-input-gradient", func() {
			g := gb
			for i := len(m.layers) - 1; i >= 0; i-- {
				g = m.layers[i].BackwardBatch(g, 32)
			}
		}},
	} {
		b.Run(bw.name, func(b *testing.B) {
			m.forwardBatch(xb, 32)
			bw.run() // size the caches outside the timed loop
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m.ZeroGrad()
				m.forwardBatch(xb, 32)
				b.StartTimer()
				bw.run()
			}
		})
	}
}
