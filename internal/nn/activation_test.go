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
