package nn

import (
	"fmt"
	"math"

	"specml/internal/rng"
	"specml/internal/tensor"
)

// Param is a trainable parameter tensor with its gradient accumulator.
type Param struct {
	Name string
	Data []float64
	Grad []float64
}

func newParam(name string, n int) *Param {
	return &Param{Name: name, Data: make([]float64, n), Grad: make([]float64, n)}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// Layer is one stage of a feed-forward network. Layers are stateful: Build
// fixes shapes and allocates parameters, a forward pass caches whatever the
// matching backward pass needs, and the backward pass consumes the most
// recent forward's cache. A layer instance therefore serves one goroutine
// at a time.
//
// ForwardBatch and BackwardBatch are the path every model driver runs —
// training, PredictBatch and the chunked evaluators. They process a whole
// row-major [n x features] block in one call, turning n per-sample loops
// into blocked kernels (im2col + GEMM for the convolutions), and they are
// BIT-IDENTICAL to looping Forward/Backward over the rows: inside every
// kernel each output element keeps the exact accumulation order of the
// per-sample loops, so batching is invisible to the golden-file,
// worker-invariance and serve bitwise-identity tests. BackwardBatch
// consumes the caches of the most recent ForwardBatch with the same n, and
// returned blocks are owned by the layer until its next call. The
// per-sample Forward/Backward pair is the reference those tests compare
// against; Model.Predict and the materialized evaluators also run it.
type Layer interface {
	// Kind returns the canonical layer-type name ("dense", "conv1d", ...).
	Kind() string
	// Build validates the input shape, allocates and initializes
	// parameters using src, and returns the output shape. Shapes are
	// either [n] (a vector) or [length, channels] (a 1-D sequence).
	Build(src *rng.Source, inputShape []int) (outputShape []int, err error)
	// Forward computes the layer output for one sample.
	Forward(x []float64) []float64
	// Backward receives dLoss/dOutput and returns dLoss/dInput, adding
	// parameter gradients into Params' Grad buffers.
	Backward(gradOut []float64) []float64
	// ForwardBatch computes outputs for n samples packed row-major in x
	// ([n x inLen]) and returns a layer-owned [n x outLen] block.
	ForwardBatch(x []float64, n int) []float64
	// BackwardBatch consumes dLoss/dOutput for the last ForwardBatch's n
	// samples and returns the layer-owned [n x inLen] input-gradient block,
	// accumulating parameter gradients exactly as n sequential Backward
	// calls would.
	BackwardBatch(gradOut []float64, n int) []float64
	// Params returns the trainable parameters (nil for stateless layers).
	Params() []*Param
	// Spec returns a serializable description of the layer configuration
	// (without weights).
	Spec() LayerSpec
}

// shapeLen returns the element count of a shape.
func shapeLen(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}

func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// glorotUniform initializes w with the Glorot/Xavier uniform scheme.
func glorotUniform(src *rng.Source, w []float64, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range w {
		w[i] = src.Uniform(-limit, limit)
	}
}

// lecunNormal initializes w with the LeCun normal scheme (recommended for
// SELU networks).
func lecunNormal(src *rng.Source, w []float64, fanIn int) {
	std := math.Sqrt(1.0 / float64(fanIn))
	for i := range w {
		w[i] = src.Normal(0, std)
	}
}

// Dense is a fully connected layer: y = W*x + b.
type Dense struct {
	Out  int
	Init string // "glorot" (default) or "lecun"

	in    int
	w, b  *Param
	x     []float64 // cached input
	y     []float64
	gin   []float64
	infer bool

	bx, by, bgin []float64 // batched-path caches (bx aliases the input block)
}

// NewDense returns a dense layer with Out output units.
func NewDense(out int) *Dense { return &Dense{Out: out} }

// Kind implements Layer.
func (d *Dense) Kind() string { return "dense" }

// Build implements Layer.
func (d *Dense) Build(src *rng.Source, inputShape []int) ([]int, error) {
	if d.Out <= 0 {
		return nil, fmt.Errorf("nn: dense layer needs positive Out, got %d", d.Out)
	}
	d.in = shapeLen(inputShape)
	if d.in == 0 {
		return nil, fmt.Errorf("nn: dense layer got empty input shape %v", inputShape)
	}
	d.w = newParam("w", d.Out*d.in)
	d.b = newParam("b", d.Out)
	if d.Init == "lecun" {
		lecunNormal(src, d.w.Data, d.in)
	} else {
		glorotUniform(src, d.w.Data, d.in, d.Out)
	}
	d.x = make([]float64, d.in)
	d.y = make([]float64, d.Out)
	d.gin = make([]float64, d.in)
	return []int{d.Out}, nil
}

// SetInference toggles inference mode: the input snapshot Backward needs is
// skipped, since a pure forward pass never calls Backward.
func (d *Dense) SetInference(v bool) { d.infer = v }

// Forward implements Layer.
func (d *Dense) Forward(x []float64) []float64 {
	if !d.infer {
		copy(d.x, x)
	}
	tensor.MatVec(d.y, d.w.Data, x, d.Out, d.in)
	for i := range d.y {
		d.y[i] += d.b.Data[i]
	}
	return d.y
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut []float64) []float64 {
	tensor.OuterAccum(d.w.Grad, gradOut, d.x, d.Out, d.in)
	for i, g := range gradOut {
		d.b.Grad[i] += g
	}
	tensor.MatTVec(d.gin, d.w.Data, gradOut, d.Out, d.in)
	return d.gin
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// Spec implements Layer.
func (d *Dense) Spec() LayerSpec {
	return LayerSpec{Type: "dense", Out: d.Out, Init: d.Init}
}

// ActivationLayer applies a pointwise activation.
type ActivationLayer struct {
	Act Activation

	x, y, gin []float64
	infer     bool

	bx, by, bgin []float64 // batched-path caches (bx aliases the input block)
	kernelShards
}

// NewActivation wraps a pointwise activation as a layer.
func NewActivation(a Activation) *ActivationLayer { return &ActivationLayer{Act: a} }

// Kind implements Layer.
func (l *ActivationLayer) Kind() string { return "activation" }

// Build implements Layer.
func (l *ActivationLayer) Build(_ *rng.Source, inputShape []int) ([]int, error) {
	if l.Act == nil {
		return nil, fmt.Errorf("nn: activation layer without activation")
	}
	n := shapeLen(inputShape)
	l.x = make([]float64, n)
	l.y = make([]float64, n)
	l.gin = make([]float64, n)
	out := make([]int, len(inputShape))
	copy(out, inputShape)
	return out, nil
}

// SetInference toggles inference mode (skips the input snapshot).
func (l *ActivationLayer) SetInference(v bool) { l.infer = v }

// Forward implements Layer.
func (l *ActivationLayer) Forward(x []float64) []float64 {
	if !l.infer {
		copy(l.x, x)
	}
	for i, v := range x {
		l.y[i] = l.Act.Value(v)
	}
	return l.y
}

// Backward implements Layer.
func (l *ActivationLayer) Backward(gradOut []float64) []float64 {
	for i, g := range gradOut {
		l.gin[i] = g * l.Act.Deriv(l.x[i], l.y[i])
	}
	return l.gin
}

// Params implements Layer.
func (l *ActivationLayer) Params() []*Param { return nil }

// Spec implements Layer.
func (l *ActivationLayer) Spec() LayerSpec {
	return LayerSpec{Type: "activation", Activation: l.Act.Name()}
}

// SoftmaxLayer applies the softmax map. On a vector input it normalizes
// the whole vector (the usual output-layer softmax). On a sequence input
// of shape [length, channels] it follows the Keras semantics of a softmax
// activation on a Conv1D layer: the normalization runs over the channel
// axis independently at every position (Table 1's layer 6).
type SoftmaxLayer struct {
	groups, width int // groups x width = total size; softmax within each width-sized row
	y, gin        []float64

	by, bgin []float64 // batched-path caches
}

// NewSoftmax returns a softmax layer.
func NewSoftmax() *SoftmaxLayer { return &SoftmaxLayer{} }

// Kind implements Layer.
func (l *SoftmaxLayer) Kind() string { return "softmax" }

// Build implements Layer.
func (l *SoftmaxLayer) Build(_ *rng.Source, inputShape []int) ([]int, error) {
	n := shapeLen(inputShape)
	if len(inputShape) == 2 {
		l.groups, l.width = inputShape[0], inputShape[1]
	} else {
		l.groups, l.width = 1, n
	}
	l.y = make([]float64, n)
	l.gin = make([]float64, n)
	out := make([]int, len(inputShape))
	copy(out, inputShape)
	return out, nil
}

// Forward implements Layer.
func (l *SoftmaxLayer) Forward(x []float64) []float64 {
	for g := 0; g < l.groups; g++ {
		lo, hi := g*l.width, (g+1)*l.width
		Softmax(l.y[lo:hi], x[lo:hi])
	}
	return l.y
}

// Backward implements Layer.
func (l *SoftmaxLayer) Backward(gradOut []float64) []float64 {
	// per group: dL/dx_i = y_i * (g_i - Σ_j g_j y_j)
	for g := 0; g < l.groups; g++ {
		lo, hi := g*l.width, (g+1)*l.width
		y := l.y[lo:hi]
		grad := gradOut[lo:hi]
		dot := 0.0
		for i, gv := range grad {
			dot += gv * y[i]
		}
		gin := l.gin[lo:hi]
		for i, gv := range grad {
			gin[i] = y[i] * (gv - dot)
		}
	}
	return l.gin
}

// Params implements Layer.
func (l *SoftmaxLayer) Params() []*Param { return nil }

// Spec implements Layer.
func (l *SoftmaxLayer) Spec() LayerSpec { return LayerSpec{Type: "softmax"} }

// Reshape reinterprets the input as TargetShape (element count preserved).
type Reshape struct {
	TargetShape []int
}

// NewReshape returns a reshape layer targeting the given shape.
func NewReshape(shape ...int) *Reshape { return &Reshape{TargetShape: shape} }

// Kind implements Layer.
func (l *Reshape) Kind() string { return "reshape" }

// Build implements Layer.
func (l *Reshape) Build(_ *rng.Source, inputShape []int) ([]int, error) {
	if shapeLen(l.TargetShape) != shapeLen(inputShape) {
		return nil, fmt.Errorf("nn: reshape %v incompatible with input %v", l.TargetShape, inputShape)
	}
	out := make([]int, len(l.TargetShape))
	copy(out, l.TargetShape)
	return out, nil
}

// Forward implements Layer.
func (l *Reshape) Forward(x []float64) []float64 { return x }

// Backward implements Layer.
func (l *Reshape) Backward(gradOut []float64) []float64 { return gradOut }

// Params implements Layer.
func (l *Reshape) Params() []*Param { return nil }

// Spec implements Layer.
func (l *Reshape) Spec() LayerSpec {
	return LayerSpec{Type: "reshape", TargetShape: append([]int(nil), l.TargetShape...)}
}

// Flatten collapses any input shape to a vector.
type Flatten struct{}

// NewFlatten returns a flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Kind implements Layer.
func (l *Flatten) Kind() string { return "flatten" }

// Build implements Layer.
func (l *Flatten) Build(_ *rng.Source, inputShape []int) ([]int, error) {
	return []int{shapeLen(inputShape)}, nil
}

// Forward implements Layer.
func (l *Flatten) Forward(x []float64) []float64 { return x }

// Backward implements Layer.
func (l *Flatten) Backward(gradOut []float64) []float64 { return gradOut }

// Params implements Layer.
func (l *Flatten) Params() []*Param { return nil }

// Spec implements Layer.
func (l *Flatten) Spec() LayerSpec { return LayerSpec{Type: "flatten"} }

// Dropout zeroes a fraction Rate of activations during training and
// rescales the survivors by 1/(1-Rate) (inverted dropout). Outside
// training mode it is the identity.
type Dropout struct {
	Rate float64

	src      *rng.Source
	training bool
	mask     []float64
	y, gin   []float64

	batchSrcs       []*rng.Source // one mask stream per sample of the next batched forward
	bmask, by, bgin []float64     // batched-path caches
}

// NewDropout returns a dropout layer with the given drop rate in [0,1).
func NewDropout(rate float64) *Dropout { return &Dropout{Rate: rate} }

// Kind implements Layer.
func (l *Dropout) Kind() string { return "dropout" }

// Build implements Layer.
func (l *Dropout) Build(src *rng.Source, inputShape []int) ([]int, error) {
	if l.Rate < 0 || l.Rate >= 1 {
		return nil, fmt.Errorf("nn: dropout rate must be in [0,1), got %g", l.Rate)
	}
	n := shapeLen(inputShape)
	l.src = src.Split()
	l.mask = make([]float64, n)
	l.y = make([]float64, n)
	l.gin = make([]float64, n)
	out := make([]int, len(inputShape))
	copy(out, inputShape)
	return out, nil
}

// SetTraining toggles training mode.
func (l *Dropout) SetTraining(training bool) { l.training = training }

// Reseed replaces the mask stream with a fresh deterministic source.
// Reseeding before each sample's Forward draws the masks a batched
// training step draws from its per-sample streams (reseedDropoutBatch).
func (l *Dropout) Reseed(src *rng.Source) { l.src = src }

// Forward implements Layer.
func (l *Dropout) Forward(x []float64) []float64 {
	if !l.training || l.Rate == 0 {
		// Identity outside training: pass the input through without the
		// defensive copy (values are unchanged either way).
		return x
	}
	keep := 1 - l.Rate
	inv := 1 / keep
	for i, v := range x {
		if l.src.Float64() < keep {
			l.mask[i] = inv
		} else {
			l.mask[i] = 0
		}
		l.y[i] = v * l.mask[i]
	}
	return l.y
}

// Backward implements Layer.
func (l *Dropout) Backward(gradOut []float64) []float64 {
	if !l.training || l.Rate == 0 {
		return gradOut
	}
	for i, g := range gradOut {
		l.gin[i] = g * l.mask[i]
	}
	return l.gin
}

// Params implements Layer.
func (l *Dropout) Params() []*Param { return nil }

// Spec implements Layer.
func (l *Dropout) Spec() LayerSpec { return LayerSpec{Type: "dropout", Rate: l.Rate} }

// trainingAware is implemented by layers whose behaviour differs between
// training and inference (currently only Dropout).
type trainingAware interface {
	SetTraining(bool)
}

// inferenceAware is implemented by layers that can skip the input snapshots
// Backward would need when the caller promises a pure forward pass (Predict,
// PredictBatch, the evaluate helpers). Outputs are unchanged; only the
// defensive copies disappear.
type inferenceAware interface {
	SetInference(bool)
}
