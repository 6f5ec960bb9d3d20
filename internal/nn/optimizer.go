package nn

import (
	"fmt"
	"math"

	"specml/internal/tensor"
)

// Optimizer applies one update step from the accumulated gradients of a
// parameter set. Implementations keep per-parameter state keyed by the
// *Param pointer, so an optimizer instance must stay paired with one model.
type Optimizer interface {
	// Name returns the canonical optimizer name.
	Name() string
	// Step applies one update using each Param's Grad (already divided by
	// the batch size by the caller) and leaves Grad untouched.
	Step(params []*Param)
}

// LRSettable is implemented by optimizers whose learning rate can be
// adjusted mid-training (used by FitConfig.LRSchedule).
type LRSettable interface {
	SetLR(lr float64)
}

// SGD is plain stochastic gradient descent.
type SGD struct {
	LR float64
}

// SetLR implements LRSettable.
func (s *SGD) SetLR(lr float64) { s.LR = lr }

// Name implements Optimizer.
func (s *SGD) Name() string { return "sgd" }

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		for i, g := range p.Grad {
			p.Data[i] -= s.LR * g
		}
	}
}

// Momentum is SGD with classical momentum.
type Momentum struct {
	LR float64
	Mu float64 // momentum coefficient, typically 0.9

	velocity map[*Param][]float64
}

// Name implements Optimizer.
func (m *Momentum) Name() string { return "momentum" }

// SetLR implements LRSettable.
func (m *Momentum) SetLR(lr float64) { m.LR = lr }

// Step implements Optimizer.
func (m *Momentum) Step(params []*Param) {
	if m.velocity == nil {
		m.velocity = make(map[*Param][]float64)
	}
	for _, p := range params {
		v, ok := m.velocity[p]
		if !ok {
			v = make([]float64, len(p.Data))
			m.velocity[p] = v
		}
		for i, g := range p.Grad {
			v[i] = m.Mu*v[i] - m.LR*g
			p.Data[i] += v[i]
		}
	}
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR    float64 // default 1e-3
	Beta1 float64 // default 0.9
	Beta2 float64 // default 0.999
	Eps   float64 // default 1e-8

	t int
	m map[*Param][]float64
	v map[*Param][]float64
}

// NewAdam returns an Adam optimizer with the standard defaults and the
// given learning rate (pass 0 for the 1e-3 default).
func NewAdam(lr float64) *Adam {
	if lr <= 0 {
		lr = 1e-3
	}
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Name implements Optimizer.
func (a *Adam) Name() string { return "adam" }

// SetLR implements LRSettable.
func (a *Adam) SetLR(lr float64) { a.LR = lr }

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	if a.m == nil {
		a.m = make(map[*Param][]float64)
		a.v = make(map[*Param][]float64)
	}
	if a.Beta1 == 0 && a.Beta2 == 0 && a.Eps == 0 {
		a.Beta1, a.Beta2, a.Eps = 0.9, 0.999, 1e-8
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.Data))
			a.m[p] = m
			a.v[p] = make([]float64, len(p.Data))
		}
		tensor.AdamStep(p.Data, p.Grad, m, a.v[p], a.LR, a.Beta1, a.Beta2, a.Eps, c1, c2)
	}
}

// OptimizerByName constructs an optimizer by canonical name with the given
// learning rate (0 selects a sensible default).
func OptimizerByName(name string, lr float64) (Optimizer, error) {
	switch name {
	case "adam", "":
		return NewAdam(lr), nil
	case "sgd":
		if lr <= 0 {
			lr = 0.01
		}
		return &SGD{LR: lr}, nil
	case "momentum":
		if lr <= 0 {
			lr = 0.01
		}
		return &Momentum{LR: lr, Mu: 0.9}, nil
	default:
		return nil, fmt.Errorf("nn: unknown optimizer %q", name)
	}
}
