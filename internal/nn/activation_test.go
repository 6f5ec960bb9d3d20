package nn

import (
	"math"
	"testing"
	"testing/quick"

	"specml/internal/rng"
)

func TestActivationValues(t *testing.T) {
	cases := []struct {
		act  Activation
		x    float64
		want float64
	}{
		{Linear, 3.5, 3.5},
		{Linear, -2, -2},
		{ReLU, 2, 2},
		{ReLU, -2, 0},
		{ReLU, 0, 0},
		{SELU, 1, seluLambda},
		{SELU, 0, 0},
		{Sigmoid, 0, 0.5},
		{Tanh, 0, 0},
	}
	for _, c := range cases {
		if got := c.act.Value(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s(%v) = %v, want %v", c.act.Name(), c.x, got, c.want)
		}
	}
}

func TestSELUNegativeBranch(t *testing.T) {
	// SELU(-inf) -> -lambda*alpha
	if got := SELU.Value(-50); math.Abs(got-(-seluLambda*seluAlpha)) > 1e-9 {
		t.Fatalf("SELU(-50) = %v, want %v", got, -seluLambda*seluAlpha)
	}
	// self-normalizing fixed point: mean 0 / var 1 inputs keep variance ~1
	src := rng.New(3)
	sum, sumsq := 0.0, 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := SELU.Value(src.StdNormal())
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 || math.Abs(variance-1) > 0.05 {
		t.Fatalf("SELU not self-normalizing: mean=%v var=%v", mean, variance)
	}
}

// Property: each activation's Deriv matches a finite difference.
func TestActivationDerivProperty(t *testing.T) {
	acts := []Activation{Linear, ReLU, SELU, Sigmoid, Tanh}
	f := func(raw int16, which uint8) bool {
		a := acts[int(which)%len(acts)]
		x := float64(raw) / 1000 // [-32.7, 32.7]
		if (a.Name() == "relu" || a.Name() == "selu") && math.Abs(x) < 1e-3 {
			return true // skip the kink at 0, where Deriv is one-sided
		}
		const h = 1e-6
		numeric := (a.Value(x+h) - a.Value(x-h)) / (2 * h)
		y := a.Value(x)
		analytic := a.Deriv(x, y)
		return math.Abs(numeric-analytic) <= 1e-4*(1+math.Abs(numeric))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestActivationByName(t *testing.T) {
	for _, name := range []string{"linear", "relu", "selu", "sigmoid", "tanh", ""} {
		if _, err := ActivationByName(name); err != nil {
			t.Errorf("ActivationByName(%q) failed: %v", name, err)
		}
	}
	if _, err := ActivationByName("softmax"); err == nil {
		t.Error("softmax must not resolve as a pointwise activation")
	}
	if _, err := ActivationByName("bogus"); err == nil {
		t.Error("bogus activation must error")
	}
}

// Property: softmax outputs are a probability distribution and are
// invariant under constant shifts of the input.
func TestSoftmaxProperties(t *testing.T) {
	src := rng.New(9)
	f := func(nRaw uint8, shiftRaw int16) bool {
		n := int(nRaw%8) + 1
		x := make([]float64, n)
		for i := range x {
			x[i] = src.Normal(0, 3)
		}
		out := make([]float64, n)
		Softmax(out, x)
		sum := 0.0
		for _, v := range out {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		// shift invariance
		shift := float64(shiftRaw) / 100
		shifted := make([]float64, n)
		for i := range x {
			shifted[i] = x[i] + shift
		}
		out2 := make([]float64, n)
		Softmax(out2, shifted)
		for i := range out {
			if math.Abs(out[i]-out2[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxExtremeValues(t *testing.T) {
	out := make([]float64, 3)
	Softmax(out, []float64{1000, 0, -1000})
	if math.IsNaN(out[0]) || math.Abs(out[0]-1) > 1e-9 {
		t.Fatalf("softmax overflow handling broken: %v", out)
	}
}

func TestSoftmaxAliasing(t *testing.T) {
	x := []float64{1, 2, 3}
	Softmax(x, x)
	sum := x[0] + x[1] + x[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("in-place softmax broken: %v", x)
	}
}

// allActivations lists every activation ActivationByName resolves.
var allActivations = []Activation{Linear, ReLU, SELU, Sigmoid, Tanh}

// activationEdgeInputs are the arguments where a slice kernel is most
// likely to part from Value/Deriv: signed zeros, infinities, NaN,
// subnormals, the SELU kink and exp's underflow below about -745.
var activationEdgeInputs = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1023, -0x1p-1023, 0x1p-1022, -0x1p-1022,
	1e-300, -1e-300, 1e-8, -1e-8, 1, -1, 20, -20, 710, -710,
	-744.5, -745, -745.2, -746, -1000, -math.MaxFloat64, math.MaxFloat64,
}

// sameBits reports bitwise equality, counting any two NaNs as equal.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// checkActivationKernels checks both slice kernels of a against Value and
// Deriv on every element of x.
func checkActivationKernels(t *testing.T, a Activation, x []float64) {
	t.Helper()
	y := make([]float64, len(x))
	a.values(y, x)
	yd := make([]float64, len(x))
	d := make([]float64, len(x))
	a.valuesDerivs(yd, d, x)
	for i, v := range x {
		want := a.Value(v)
		wantD := a.Deriv(v, want)
		if !sameBits(y[i], want) {
			t.Errorf("%s values(%v) = %v (%#x), Value = %v (%#x)", a.Name(), v, y[i], math.Float64bits(y[i]), want, math.Float64bits(want))
		}
		if !sameBits(yd[i], want) {
			t.Errorf("%s valuesDerivs(%v) value = %v, Value = %v", a.Name(), v, yd[i], want)
		}
		if !sameBits(d[i], wantD) {
			t.Errorf("%s valuesDerivs(%v) derivative = %v (%#x), Deriv = %v (%#x)", a.Name(), v, d[i], math.Float64bits(d[i]), wantD, math.Float64bits(wantD))
		}
	}
}

// TestActivationKernelsBitwise pins the slice kernels the batched layers
// run to the per-element Value and Deriv the per-sample path runs.
func TestActivationKernelsBitwise(t *testing.T) {
	x := append([]float64(nil), activationEdgeInputs...)
	src := rng.New(12)
	for i := 0; i < 4000; i++ {
		x = append(x, src.Normal(0, 4))
	}
	for _, a := range allActivations {
		checkActivationKernels(t, a, x)
	}
}

func FuzzActivationKernels(f *testing.F) {
	for _, v := range activationEdgeInputs {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		for _, a := range allActivations {
			checkActivationKernels(t, a, []float64{v})
		}
	})
}

// TestActivationBackwardNeedsTrainingForward pins the derivative hand-off
// between an activation's batched passes: BackwardBatch reads the
// derivatives a training-mode ForwardBatch of the same n stored, and panics
// when there are none.
func TestActivationBackwardNeedsTrainingForward(t *testing.T) {
	l := NewActivation(SELU)
	if _, err := l.Build(nil, []int{6}); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3*6)
	g := make([]float64, 3*6)
	fillBatch(rng.New(13), x)
	fillBatch(rng.New(14), g)
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: BackwardBatch did not panic", name)
			}
		}()
		fn()
	}

	l.SetInference(true)
	l.ForwardBatch(x, 3)
	l.SetInference(false)
	expectPanic("after an inference-mode forward", func() { l.BackwardBatch(g, 3) })

	l.ForwardBatch(x, 3)
	expectPanic("after a forward of another n", func() { l.BackwardBatch(g[:2*6], 2) })

	l.ForwardBatch(x, 3)
	l.BackwardBatch(g, 3)
	expectPanic("a second time after one forward", func() { l.BackwardBatch(g, 3) })

	d := NewDropout(0.5)
	if _, err := d.Build(rng.New(15), []int{6}); err != nil {
		t.Fatal(err)
	}
	d.ForwardBatch(x, 3) // not training: the identity, no masks drawn
	d.SetTraining(true)
	expectPanic("dropout after a forward outside training", func() { d.BackwardBatch(g, 3) })
	srcs := make([]*rng.Source, 3)
	for i := range srcs {
		srcs[i] = rng.New(uint64(16 + i))
	}
	d.setBatchSources(srcs)
	d.ForwardBatch(x, 3)
	expectPanic("dropout after a forward of another n", func() { d.BackwardBatch(g[:2*6], 2) })
	d.BackwardBatch(g, 3)
}
