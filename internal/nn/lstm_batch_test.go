package nn

import (
	"math"
	"testing"

	"specml/internal/rng"
)

// TestLSTMBatchBitIdentical pins the tentpole contract on the recurrent
// kernels across the full batch x timestep grid: ForwardBatch/BackwardBatch
// are bitwise identical — outputs, input gradients and accumulated
// parameter gradients — to looping Forward/Backward over the rows.
func TestLSTMBatchBitIdentical(t *testing.T) {
	const features, units = 4, 6
	for _, steps := range []int{1, 5, 9} {
		for _, n := range []int{1, 7, 32} {
			t.Run("steps="+itoa(steps)+"/n="+itoa(n), func(t *testing.T) {
				build := func() *LSTM {
					l := NewLSTM(units)
					if _, err := l.Build(rng.New(17), []int{steps, features}); err != nil {
						t.Fatalf("build: %v", err)
					}
					return l
				}
				batch, ref := build(), build()
				inLen := steps * features
				src := rng.New(uint64(100*steps + n))
				xb := make([]float64, n*inLen)
				gb := make([]float64, n*units)
				fillBatch(src, xb)
				fillBatch(src, gb)

				yb := batch.ForwardBatch(xb, n)
				ginb := batch.BackwardBatch(gb, n)

				refY := make([]float64, n*units)
				refGin := make([]float64, n*inLen)
				for s := 0; s < n; s++ {
					y := ref.Forward(xb[s*inLen : (s+1)*inLen])
					copy(refY[s*units:(s+1)*units], y)
					gin := ref.Backward(gb[s*units : (s+1)*units])
					copy(refGin[s*inLen:(s+1)*inLen], gin)
				}

				expectBits(t, "forward", yb, refY)
				expectBits(t, "backward", ginb, refGin)
				bp, rp := batch.Params(), ref.Params()
				for i := range bp {
					expectBits(t, bp[i].Name+" grad", bp[i].Grad, rp[i].Grad)
				}
			})
		}
	}
}

// TestLSTMBatchGradcheck verifies the batched BPTT path against central
// finite differences of the batched loss, through a full monitor-shaped
// stack (reshape -> LSTM -> dense head).
func TestLSTMBatchGradcheck(t *testing.T) {
	m := NewModel().
		Add(NewReshape(5, 4)).
		Add(NewLSTM(6)).
		Add(NewDense(3))
	if err := m.Build(rng.New(23), 20); err != nil {
		t.Fatal(err)
	}
	const n = 3
	inLen, outLen := m.InputLen(), m.OutputLen()
	src := rng.New(24)
	xb := make([]float64, n*inLen)
	tb := make([]float64, n*outLen)
	for i := range xb {
		xb[i] = src.Normal(0, 1)
	}
	for i := range tb {
		tb[i] = src.Normal(0, 1)
	}
	batchLoss := func() float64 {
		yb := m.forwardBatch(xb, n)
		l := 0.0
		for i, v := range yb {
			d := v - tb[i]
			l += 0.5 * d * d
		}
		return l
	}

	m.SetTraining(false)
	m.ZeroGrad()
	yb := m.forwardBatch(xb, n)
	gb := make([]float64, n*outLen)
	for i, v := range yb {
		gb[i] = v - tb[i]
	}
	m.backwardBatch(gb, n)

	const eps = 1e-5
	maxRel := 0.0
	for _, p := range m.Params() {
		for i := range p.Data {
			orig := p.Data[i]
			p.Data[i] = orig + eps
			lp := batchLoss()
			p.Data[i] = orig - eps
			lm := batchLoss()
			p.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			den := math.Max(math.Abs(p.Grad[i])+math.Abs(numeric), 1e-4)
			if r := math.Abs(p.Grad[i]-numeric) / den; r > maxRel {
				maxRel = r
			}
		}
	}
	if maxRel > 2e-4 {
		t.Fatalf("batched BPTT gradcheck max relative error %.3e", maxRel)
	}
}

// TestHybridStackFullyBatchable pins the paper's hybrid future-work stack
// (TimeDistributed feature selector into an LSTM) on the batched engine:
// PredictBatch stays bitwise equal to Predict.
func TestHybridStackFullyBatchable(t *testing.T) {
	m := NewModel().
		Add(NewReshape(6, 10)).
		Add(NewTimeDistributed(NewLocallyConnected1D(2, 3, 2), 10, 1)).
		Add(NewLSTM(5)).
		Add(NewDense(2))
	if err := m.Build(rng.New(31), 60); err != nil {
		t.Fatal(err)
	}
	src := rng.New(32)
	rows := make([][]float64, 10)
	for i := range rows {
		rows[i] = make([]float64, 60)
		fillBatch(src, rows[i])
	}
	want := make([][]float64, len(rows))
	for i, r := range rows {
		want[i] = m.Predict(r)
	}
	for _, workers := range []int{1, 3} {
		got, err := m.PredictBatch(rows, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			expectBits(t, "row "+itoa(i), got[i], want[i])
		}
	}
}

// TestFusedDenseActivation pins the fused Dense+activation batch step the
// model's batched forward takes for every activation: bitwise identical to
// running each layer's own kernel, for outputs, input gradients and
// parameter gradients.
func TestFusedDenseActivation(t *testing.T) {
	build := func() *Model {
		m := NewModel().
			Add(NewDense(16)).
			Add(NewActivation(ReLU)).
			Add(NewDense(10)).
			Add(NewActivation(SELU)).
			Add(NewDense(8)).
			Add(NewActivation(Tanh)).
			Add(NewDense(6)).
			Add(NewActivation(Sigmoid)).
			Add(NewDense(5)).
			Add(NewActivation(Linear)).
			Add(NewDense(4))
		if err := m.Build(rng.New(51), 12); err != nil {
			t.Fatal(err)
		}
		return m
	}
	fused, ref := build(), build()
	const n = 13
	inLen, outLen := fused.InputLen(), fused.OutputLen()
	src := rng.New(52)
	xb := make([]float64, n*inLen)
	gb := make([]float64, n*outLen)
	fillBatch(src, xb)
	fillBatch(src, gb)

	yb := fused.forwardBatch(xb, n)
	refY := xb
	for _, l := range ref.Layers() {
		refY = l.ForwardBatch(refY, n)
	}
	expectBits(t, "forward", yb, refY)

	ginb := backwardAll(fused, gb, n)
	refGin := backwardAll(ref, gb, n)
	expectBits(t, "backward", ginb, refGin)
	fp, rp := fused.Params(), ref.Params()
	for i := range fp {
		expectBits(t, fp[i].Name+" grad", fp[i].Grad, rp[i].Grad)
	}
}
