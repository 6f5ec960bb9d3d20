package nn

import (
	"fmt"
	"math"

	"specml/internal/rng"
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
// fixes shapes and allocates parameters, ForwardBatch caches whatever the
// matching BackwardBatch needs, and BackwardBatch consumes the most recent
// forward's cache. A layer instance therefore serves one goroutine at a
// time.
//
// The contract is batched: every model driver (training, Predict,
// PredictBatch, the evaluators) hands a layer a whole row-major
// [n x features] block, which the layer runs through blocked kernels
// (im2col + GEMM for the convolutions). The result is BIT-IDENTICAL to
// running the rows one at a time through the plain per-sample loops: inside
// every kernel each output element keeps the exact accumulation order of
// those loops, so batching is invisible to the golden-file,
// worker-invariance and serve bitwise-identity tests. The per-sample loops
// live only in the package's tests (oracle_test.go), as the reference the
// bit-identity tests compare against. BackwardBatch consumes the caches of
// the most recent ForwardBatch with the same n, run outside inference mode
// (activations keep their derivatives from it and panic without them), and
// returned blocks are owned by the layer until its next call.
type Layer interface {
	// Kind returns the canonical layer-type name ("dense", "conv1d", ...).
	Kind() string
	// Build validates the input shape, allocates and initializes
	// parameters using src, and returns the output shape. Shapes are
	// either [n] (a vector) or [length, channels] (a 1-D sequence).
	Build(src *rng.Source, inputShape []int) (outputShape []int, err error)
	// ForwardBatch computes outputs for n samples packed row-major in x
	// ([n x inLen]) and returns a layer-owned [n x outLen] block.
	ForwardBatch(x []float64, n int) []float64
	// BackwardBatch consumes dLoss/dOutput for the last ForwardBatch's n
	// samples and returns the layer-owned [n x inLen] input-gradient block,
	// adding the parameter gradients into Params' Grad buffers in the order
	// n sequential per-sample backward passes would.
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

	in   int
	w, b *Param

	bx, by, bgin []float64 // forward/backward caches (bx aliases the input block)
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
	return []int{d.Out}, nil
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

	width int // elements per row
	infer bool

	// A training-mode ForwardBatch writes the derivative of every element
	// into bgin; BackwardBatch scales it by the output gradient in place. dn
	// is the batch size whose derivatives bgin holds, 0 when it holds none.
	by, bgin []float64
	dn       int
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
	l.width = shapeLen(inputShape)
	out := make([]int, len(inputShape))
	copy(out, inputShape)
	return out, nil
}

// SetInference toggles inference mode: ForwardBatch skips the derivatives
// only BackwardBatch would read.
func (l *ActivationLayer) SetInference(v bool) { l.infer = v }

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

	by, bgin []float64 // forward/backward caches
}

// NewSoftmax returns a softmax layer.
func NewSoftmax() *SoftmaxLayer { return &SoftmaxLayer{} }

// Kind implements Layer.
func (l *SoftmaxLayer) Kind() string { return "softmax" }

// Build implements Layer.
func (l *SoftmaxLayer) Build(_ *rng.Source, inputShape []int) ([]int, error) {
	if len(inputShape) == 2 {
		l.groups, l.width = inputShape[0], inputShape[1]
	} else {
		l.groups, l.width = 1, shapeLen(inputShape)
	}
	out := make([]int, len(inputShape))
	copy(out, inputShape)
	return out, nil
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

// Params implements Layer.
func (l *Flatten) Params() []*Param { return nil }

// Spec implements Layer.
func (l *Flatten) Spec() LayerSpec { return LayerSpec{Type: "flatten"} }

// Dropout zeroes a fraction Rate of activations during training and
// rescales the survivors by 1/(1-Rate) (inverted dropout). Outside
// training mode it is the identity.
type Dropout struct {
	Rate float64

	width    int         // elements per row
	src      *rng.Source // build-time stream: PredictWithUncertainty draws its row seeds from it
	training bool

	batchSrcs       []*rng.Source // one mask stream per sample of the next training forward
	bmask, by, bgin []float64     // forward/backward caches
	maskN           int           // batch size of bmask's masks, 0 when none
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
	l.width = shapeLen(inputShape)
	// The split also advances the build stream, so every later layer's
	// initial weights depend on it.
	l.src = src.Split()
	out := make([]int, len(inputShape))
	copy(out, inputShape)
	return out, nil
}

// SetTraining toggles training mode.
func (l *Dropout) SetTraining(training bool) { l.training = training }

// Params implements Layer.
func (l *Dropout) Params() []*Param { return nil }

// Spec implements Layer.
func (l *Dropout) Spec() LayerSpec { return LayerSpec{Type: "dropout", Rate: l.Rate} }

// trainingAware is implemented by layers whose behaviour differs between
// training and inference (currently only Dropout).
type trainingAware interface {
	SetTraining(bool)
}

// inferenceAware is implemented by layers that can skip the work only
// BackwardBatch reads when the caller promises a pure forward pass
// (PredictBatch, the evaluators, PredictWithUncertainty). Outputs are
// unchanged.
type inferenceAware interface {
	SetInference(bool)
}
