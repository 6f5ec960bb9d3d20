// Package nn is a from-scratch neural-network framework covering exactly
// the architectures the paper uses: multi-layer perceptrons, 1-D
// convolutional networks (Table 1), locally connected 1-D layers (the NMR
// CNN) and LSTM networks, with ReLU/SELU/Softmax/Linear activations, MAE
// and MSE losses and SGD/Momentum/Adam optimizers. All layers implement
// exact backpropagation, verified against finite differences in the test
// suite.
//
// The framework operates per-sample on flat []float64 buffers with shape
// metadata established once at build time; mini-batch training accumulates
// gradients across samples before each optimizer step.
package nn

import (
	"fmt"
	"math"
)

// Activation is a pointwise nonlinearity. Softmax is not pointwise and is
// implemented as its own layer (SoftmaxLayer).
//
// The batched kernels run an activation through its slice kernels, one
// call per block instead of one interface call per element. values(y, x)
// sets y[i] = Value(x[i]); valuesDerivs(y, d, x) also sets
// d[i] = Deriv(x[i], y[i]), sharing the work the two have in common (SELU's
// exp). Both are bit-identical to Value and Deriv, element by element.
// The set of activations is closed: ActivationByName lists them all.
type Activation interface {
	// Name returns the canonical lower-case identifier ("relu", "selu", ...).
	Name() string
	// Value evaluates the function at x.
	Value(x float64) float64
	// Deriv evaluates the derivative at pre-activation x (y = Value(x) is
	// supplied so implementations like sigmoid can reuse it).
	Deriv(x, y float64) float64

	values(y, x []float64)
	valuesDerivs(y, d, x []float64)
}

// SELU constants from Klambauer et al., "Self-Normalizing Neural Networks".
const (
	seluLambda = 1.0507009873554804934193349852946
	seluAlpha  = 1.6732632423543772848170429916717
)

type linearAct struct{}

func (linearAct) Name() string               { return "linear" }
func (linearAct) Value(x float64) float64    { return x }
func (linearAct) Deriv(_, _ float64) float64 { return 1 }
func (linearAct) values(y, x []float64)      { copy(y[:len(x)], x) }
func (linearAct) valuesDerivs(y, d, x []float64) {
	copy(y[:len(x)], x)
	d = d[:len(x)]
	for i := range d {
		d[i] = 1
	}
}

type reluAct struct{}

func (reluAct) Name() string { return "relu" }
func (reluAct) Value(x float64) float64 {
	if x > 0 {
		return x
	}
	return 0
}
func (reluAct) Deriv(x, _ float64) float64 {
	if x > 0 {
		return 1
	}
	return 0
}
func (reluAct) values(y, x []float64) {
	y = y[:len(x)]
	for i, v := range x {
		if v > 0 {
			y[i] = v
		} else {
			y[i] = 0
		}
	}
}
func (reluAct) valuesDerivs(y, d, x []float64) {
	y, d = y[:len(x)], d[:len(x)]
	for i, v := range x {
		if v > 0 {
			y[i], d[i] = v, 1
		} else {
			y[i], d[i] = 0, 0
		}
	}
}

type seluAct struct{}

func (seluAct) Name() string { return "selu" }
func (seluAct) Value(x float64) float64 {
	if x > 0 {
		return seluLambda * x
	}
	return seluLambda * seluAlpha * (math.Exp(x) - 1)
}
func (seluAct) Deriv(x, _ float64) float64 {
	if x > 0 {
		return seluLambda
	}
	return seluLambda * seluAlpha * math.Exp(x)
}
func (seluAct) values(y, x []float64) {
	y = y[:len(x)]
	for i, v := range x {
		if v > 0 {
			y[i] = seluLambda * v
		} else {
			y[i] = seluLambda * seluAlpha * (math.Exp(v) - 1)
		}
	}
}

// valuesDerivs evaluates exp once per negative element: the value and the
// derivative are the same constant times e-1 and e.
func (seluAct) valuesDerivs(y, d, x []float64) {
	y, d = y[:len(x)], d[:len(x)]
	for i, v := range x {
		if v > 0 {
			y[i], d[i] = seluLambda*v, seluLambda
		} else {
			e := math.Exp(v)
			y[i], d[i] = seluLambda*seluAlpha*(e-1), seluLambda*seluAlpha*e
		}
	}
}

type sigmoidAct struct{}

func (sigmoidAct) Name() string { return "sigmoid" }
func (sigmoidAct) Value(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}
func (sigmoidAct) Deriv(_, y float64) float64 { return y * (1 - y) }
func (sigmoidAct) values(y, x []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] = 1 / (1 + math.Exp(-v))
	}
}
func (sigmoidAct) valuesDerivs(y, d, x []float64) {
	y, d = y[:len(x)], d[:len(x)]
	for i, v := range x {
		s := 1 / (1 + math.Exp(-v))
		y[i], d[i] = s, s*(1-s)
	}
}

type tanhAct struct{}

func (tanhAct) Name() string               { return "tanh" }
func (tanhAct) Value(x float64) float64    { return math.Tanh(x) }
func (tanhAct) Deriv(_, y float64) float64 { return 1 - y*y }
func (tanhAct) values(y, x []float64) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] = math.Tanh(v)
	}
}
func (tanhAct) valuesDerivs(y, d, x []float64) {
	y, d = y[:len(x)], d[:len(x)]
	for i, v := range x {
		t := math.Tanh(v)
		y[i], d[i] = t, 1-t*t
	}
}

// Named activation singletons.
var (
	Linear  Activation = linearAct{}
	ReLU    Activation = reluAct{}
	SELU    Activation = seluAct{}
	Sigmoid Activation = sigmoidAct{}
	Tanh    Activation = tanhAct{}
)

// ActivationByName resolves a canonical activation name. "softmax" is not
// resolvable here; use NewSoftmax (it is a layer, not a pointwise map).
func ActivationByName(name string) (Activation, error) {
	switch name {
	case "linear", "":
		return Linear, nil
	case "relu":
		return ReLU, nil
	case "selu":
		return SELU, nil
	case "sigmoid":
		return Sigmoid, nil
	case "tanh":
		return Tanh, nil
	default:
		return nil, fmt.Errorf("nn: unknown activation %q", name)
	}
}

// Softmax computes the softmax of x into out with the usual max-shift for
// numerical stability. out and x may alias.
func Softmax(out, x []float64) {
	if len(out) != len(x) {
		panic("nn: Softmax length mismatch")
	}
	maxV := math.Inf(-1)
	for _, v := range x {
		if v > maxV {
			maxV = v
		}
	}
	sum := 0.0
	for i, v := range x {
		e := math.Exp(v - maxV)
		out[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range out {
		out[i] *= inv
	}
}
