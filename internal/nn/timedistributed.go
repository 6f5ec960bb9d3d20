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

	steps, features, innerOut int
	xs                        []float64 // cached input sequence
	y, gin                    []float64
	infer                     bool
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
	l.steps, l.features = inputShape[0], inputShape[1]
	innerIn := l.InnerShape
	if len(innerIn) == 0 {
		innerIn = []int{l.features}
	}
	if shapeLen(innerIn) != l.features {
		return nil, fmt.Errorf("nn: inner shape %v does not hold %d features", innerIn, l.features)
	}
	out, err := l.Inner.Build(src, innerIn)
	if err != nil {
		return nil, fmt.Errorf("nn: timedistributed inner: %w", err)
	}
	if err := checkParamGrad(l.Inner); err != nil {
		return nil, fmt.Errorf("nn: timedistributed inner: %w", err)
	}
	l.innerOut = shapeLen(out)
	l.xs = make([]float64, l.steps*l.features)
	l.y = make([]float64, l.steps*l.innerOut)
	l.gin = make([]float64, l.steps*l.features)
	return []int{l.steps, l.innerOut}, nil
}

// SetInference propagates inference mode to the inner layer and skips the
// sequence snapshot that Backward's re-forward would need.
func (l *TimeDistributed) SetInference(v bool) {
	l.infer = v
	if ia, ok := l.Inner.(inferenceAware); ok {
		ia.SetInference(v)
	}
}

// Forward implements Layer.
func (l *TimeDistributed) Forward(x []float64) []float64 {
	if !l.infer {
		copy(l.xs, x)
	}
	for t := 0; t < l.steps; t++ {
		out := l.Inner.Forward(x[t*l.features : (t+1)*l.features])
		copy(l.y[t*l.innerOut:(t+1)*l.innerOut], out)
	}
	return l.y
}

// Backward implements Layer. The inner layer caches only its most recent
// forward pass, so each timestep's forward is recomputed immediately
// before its backward; parameter gradients accumulate across timesteps
// because the weights are shared.
func (l *TimeDistributed) Backward(gradOut []float64) []float64 {
	for t := 0; t < l.steps; t++ {
		xt := l.xs[t*l.features : (t+1)*l.features]
		l.Inner.Forward(xt) // restore the inner cache for this timestep
		gin := l.Inner.Backward(gradOut[t*l.innerOut : (t+1)*l.innerOut])
		copy(l.gin[t*l.features:(t+1)*l.features], gin)
	}
	return l.gin
}

// ForwardBatch implements Layer. A sample-major [n x steps*features] block
// is, read row-major, already the [n*steps x features] row block the inner
// layer's batched kernel wants (row k = s*steps + t), so the whole sequence
// batch is one zero-copy inner call. Row order (sample ascending, timestep
// ascending) is exactly the order sequential per-sample Forwards visit the
// timesteps, so the bit-identity contract carries through unchanged.
func (l *TimeDistributed) ForwardBatch(x []float64, n int) []float64 {
	return l.Inner.ForwardBatch(x, n*l.steps)
}

// BackwardBatch implements Layer. The inner batched backward accumulates
// the shared parameters' gradients in ascending row order — (sample asc,
// timestep asc) — which matches n sequential TimeDistributed Backwards
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
