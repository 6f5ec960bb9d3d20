package nn

import (
	"math"
	"slices"
	"testing"

	"specml/internal/rng"
)

// numericalGradCheck compares the gradients of the batched backward pass
// (parameters AND inputs, every layer's BackwardBatch run) against central
// finite differences of the batched forward pass over n random samples,
// returning the maximum relative error. The loss is summed over the rows.
func numericalGradCheck(t *testing.T, m *Model, loss Loss, seed uint64, n int) float64 {
	t.Helper()
	src := rng.New(seed)
	inLen, outLen := m.InputLen(), m.OutputLen()
	x := make([]float64, n*inLen)
	y := make([]float64, n*outLen)
	for i := range x {
		x[i] = src.Normal(0, 1)
	}
	for i := range y {
		y[i] = src.Float64()
	}
	// normalize targets for softmax-headed models; harmless otherwise
	for r := 0; r < n; r++ {
		row := y[r*outLen : (r+1)*outLen]
		sum := 0.0
		for _, v := range row {
			sum += v
		}
		for i := range row {
			row[i] /= sum
		}
	}

	m.SetTraining(false)
	m.ZeroGrad()
	out := m.forwardBatch(x, n)
	grad := make([]float64, len(out))
	for r := 0; r < n; r++ {
		loss.Grad(out[r*outLen:(r+1)*outLen], y[r*outLen:(r+1)*outLen], grad[r*outLen:(r+1)*outLen])
	}
	analyticIn := slices.Clone(backwardAll(m, grad, n))

	const eps = 1e-5
	maxRel := 0.0
	rel := func(analytic, numeric float64) float64 {
		den := math.Max(math.Abs(analytic)+math.Abs(numeric), 1e-4)
		return math.Abs(analytic-numeric) / den
	}
	evalLoss := func() float64 {
		out := m.forwardBatch(x, n)
		l := 0.0
		for r := 0; r < n; r++ {
			l += loss.Loss(out[r*outLen:(r+1)*outLen], y[r*outLen:(r+1)*outLen])
		}
		return l
	}

	// parameter gradients
	for _, p := range m.Params() {
		stride := 1
		if len(p.Data) > 400 {
			stride = len(p.Data) / 200 // sample large tensors
		}
		for i := 0; i < len(p.Data); i += stride {
			orig := p.Data[i]
			p.Data[i] = orig + eps
			lp := evalLoss()
			p.Data[i] = orig - eps
			lm := evalLoss()
			p.Data[i] = orig
			numeric := (lp - lm) / (2 * eps)
			if r := rel(p.Grad[i], numeric); r > maxRel {
				maxRel = r
			}
		}
	}
	// input gradients
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		lp := evalLoss()
		x[i] = orig - eps
		lm := evalLoss()
		x[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if r := rel(analyticIn[i], numeric); r > maxRel {
			maxRel = r
		}
	}
	return maxRel
}

func buildModel(t *testing.T, seed uint64, inputShape []int, layers ...Layer) *Model {
	t.Helper()
	m := NewModel()
	for _, l := range layers {
		m.Add(l)
	}
	if err := m.Build(rng.New(seed), inputShape...); err != nil {
		t.Fatal(err)
	}
	return m
}

const gradTol = 2e-4

func TestGradDense(t *testing.T) {
	m := buildModel(t, 1, []int{7}, NewDense(5), NewDense(3))
	if r := numericalGradCheck(t, m, MSE, 2, 1); r > gradTol {
		t.Fatalf("dense gradient error %v", r)
	}
}

func TestGradDenseWithActivations(t *testing.T) {
	for _, act := range []Activation{ReLU, SELU, Sigmoid, Tanh, Linear} {
		m := buildModel(t, 3, []int{6},
			NewDense(8), NewActivation(act), NewDense(4))
		if r := numericalGradCheck(t, m, MSE, 4, 1); r > gradTol {
			t.Fatalf("%s gradient error %v", act.Name(), r)
		}
	}
}

func TestGradSoftmaxHead(t *testing.T) {
	m := buildModel(t, 5, []int{6}, NewDense(4), NewSoftmax())
	if r := numericalGradCheck(t, m, MSE, 6, 1); r > gradTol {
		t.Fatalf("softmax gradient error %v", r)
	}
}

func TestGradSoftmaxWithMAE(t *testing.T) {
	// MAE is only subdifferentiable; the check still passes away from kinks
	// for almost all random draws with the loose relative tolerance.
	m := buildModel(t, 7, []int{5}, NewDense(4), NewSoftmax())
	if r := numericalGradCheck(t, m, MSE, 8, 1); r > gradTol {
		t.Fatalf("softmax+MAE gradient error %v", r)
	}
}

func TestGradConv1D(t *testing.T) {
	m := buildModel(t, 9, []int{20, 2},
		NewConv1D(3, 5, 2), NewActivation(Tanh), NewFlatten(), NewDense(3))
	if r := numericalGradCheck(t, m, MSE, 10, 1); r > gradTol {
		t.Fatalf("conv1d gradient error %v", r)
	}
}

func TestGradConv1DStacked(t *testing.T) {
	// Miniature version of the paper's Table-1 stack.
	m := buildModel(t, 11, []int{40},
		NewReshape(40, 1),
		NewConv1D(5, 7, 1), NewActivation(SELU),
		NewConv1D(5, 7, 3), NewActivation(SELU),
		NewConv1D(4, 5, 2), NewSoftmax(),
		NewFlatten(),
		NewDense(4), NewSoftmax())
	if r := numericalGradCheck(t, m, MSE, 12, 1); r > gradTol {
		t.Fatalf("stacked conv gradient error %v", r)
	}
}

func TestGradLocallyConnected1D(t *testing.T) {
	m := buildModel(t, 13, []int{27, 1},
		NewLocallyConnected1D(4, 9, 9), NewFlatten(), NewDense(4))
	if r := numericalGradCheck(t, m, MSE, 14, 1); r > gradTol {
		t.Fatalf("locally connected gradient error %v", r)
	}
}

func TestGradLSTM(t *testing.T) {
	m := buildModel(t, 15, []int{4, 6}, NewLSTM(5), NewDense(3))
	if r := numericalGradCheck(t, m, MSE, 16, 1); r > gradTol {
		t.Fatalf("lstm gradient error %v", r)
	}
}

func TestGradLSTMLongerSequence(t *testing.T) {
	m := buildModel(t, 17, []int{9, 3}, NewLSTM(4), NewDense(2))
	if r := numericalGradCheck(t, m, MSE, 18, 1); r > gradTol {
		t.Fatalf("lstm(T=9) gradient error %v", r)
	}
}

func TestGradPooling(t *testing.T) {
	m := buildModel(t, 19, []int{16, 2},
		NewConv1D(3, 3, 1), NewActivation(Tanh),
		NewMaxPool1D(2, 0), NewFlatten(), NewDense(3))
	if r := numericalGradCheck(t, m, MSE, 20, 1); r > gradTol {
		t.Fatalf("maxpool gradient error %v", r)
	}
	m2 := buildModel(t, 21, []int{16, 2},
		NewConv1D(3, 3, 1), NewActivation(Tanh),
		NewAvgPool1D(2, 0), NewFlatten(), NewDense(3))
	if r := numericalGradCheck(t, m2, MSE, 22, 1); r > gradTol {
		t.Fatalf("avgpool gradient error %v", r)
	}
}

func TestGradHuber(t *testing.T) {
	m := buildModel(t, 23, []int{5}, NewDense(4), NewActivation(Tanh), NewDense(2))
	if r := numericalGradCheck(t, m, HuberLoss{Delta: 0.5}, 24, 1); r > gradTol {
		t.Fatalf("huber gradient error %v", r)
	}
}
