package nn

import (
	"fmt"

	"specml/internal/rng"
)

// TimeDistributed applies an inner layer independently to every timestep
// of a [timesteps, features] input, sharing the inner layer's weights
// across timesteps (Keras TimeDistributed semantics). The output is
// [timesteps, innerOutputLen].
//
// This enables the hybrid architecture the paper proposes as future work:
// "combining a locally connected convolutional layer as feature selector
// and input for an LSTM layer".
type TimeDistributed struct {
	Inner Layer
	// InnerShape optionally reshapes each timestep's feature vector before
	// the inner layer (e.g. [1700, 1] to feed a convolution); defaults to
	// the flat [features].
	InnerShape []int

	steps int
}

// NewTimeDistributed wraps inner.
func NewTimeDistributed(inner Layer, innerShape ...int) *TimeDistributed {
	return &TimeDistributed{Inner: inner, InnerShape: innerShape}
}

// Kind implements Layer.
func (l *TimeDistributed) Kind() string { return "timedistributed" }

// Build implements Layer.
func (l *TimeDistributed) Build(src *rng.Source, inputShape []int) ([]int, error) {
	if l.Inner == nil {
		return nil, fmt.Errorf("nn: timedistributed without inner layer")
	}
	if len(inputShape) != 2 || inputShape[0] <= 0 || inputShape[1] <= 0 {
		return nil, fmt.Errorf("nn: timedistributed needs [timesteps, features], got %v", inputShape)
	}
	l.steps = inputShape[0]
	features := inputShape[1]
	innerIn := l.InnerShape
	if len(innerIn) == 0 {
		innerIn = []int{features}
	}
	if shapeLen(innerIn) != features {
		return nil, fmt.Errorf("nn: inner shape %v does not hold %d features", innerIn, features)
	}
	out, err := l.Inner.Build(src, innerIn)
	if err != nil {
		return nil, fmt.Errorf("nn: timedistributed inner: %w", err)
	}
	if err := checkParamGrad(l.Inner); err != nil {
		return nil, fmt.Errorf("nn: timedistributed inner: %w", err)
	}
	return []int{l.steps, shapeLen(out)}, nil
}

// SetInference propagates inference mode to the inner layer.
func (l *TimeDistributed) SetInference(v bool) {
	if ia, ok := l.Inner.(inferenceAware); ok {
		ia.SetInference(v)
	}
}

// ForwardBatch implements Layer. A sample-major [n x steps*features] block
// is, read row-major, already the [n*steps x features] row block the inner
// layer's batched kernel wants (row k = s*steps + t), so the whole sequence
// batch is one zero-copy inner call. Row order (sample ascending, timestep
// ascending) is exactly the order the per-sample reference visits the
// timesteps, so the bit-identity contract carries through unchanged.
func (l *TimeDistributed) ForwardBatch(x []float64, n int) []float64 {
	return l.Inner.ForwardBatch(x, n*l.steps)
}

// BackwardBatch implements Layer. The inner batched backward accumulates
// the shared parameters' gradients in ascending row order — (sample asc,
// timestep asc) — which matches n sequential per-sample backward passes
// (each walks its timesteps ascending).
func (l *TimeDistributed) BackwardBatch(gradOut []float64, n int) []float64 {
	return l.Inner.BackwardBatch(gradOut, n*l.steps)
}

// backwardParams implements paramGradLayer by delegating to the inner
// layer, over the same n*steps rows as BackwardBatch.
func (l *TimeDistributed) backwardParams(gradOut []float64, n int) {
	l.Inner.(paramGradLayer).backwardParams(gradOut, n*l.steps)
}

// Params implements Layer (the shared inner parameters).
func (l *TimeDistributed) Params() []*Param { return l.Inner.Params() }

// Spec implements Layer.
func (l *TimeDistributed) Spec() LayerSpec {
	inner := l.Inner.Spec()
	return LayerSpec{
		Type:        "timedistributed",
		Inner:       &inner,
		TargetShape: append([]int(nil), l.InnerShape...),
	}
}
