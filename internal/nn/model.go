package nn

import (
	"fmt"
	"strings"

	"specml/internal/parallel"
	"specml/internal/rng"
)

// Model is a feed-forward stack of layers.
type Model struct {
	layers      []Layer
	inputShape  []int
	outputShape []int
	built       bool

	// params caches the flattened parameter list once built (the layer
	// stack is immutable after Build), so per-batch ZeroGrad calls don't
	// rebuild the slice.
	params []*Param
	// firstParam is the index of the lowest layer with parameters, -1 if
	// none: backwardBatch stops there.
	firstParam int
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// Add appends a layer. It panics if the model is already built, which is
// always a programming error.
func (m *Model) Add(l Layer) *Model {
	if m.built {
		panic("nn: Add after Build")
	}
	m.layers = append(m.layers, l)
	return m
}

// Build fixes the input shape, allocates and initializes all parameters
// from src, and validates shape compatibility across the stack.
func (m *Model) Build(src *rng.Source, inputShape ...int) error {
	if m.built {
		return fmt.Errorf("nn: model already built")
	}
	if len(m.layers) == 0 {
		return fmt.Errorf("nn: empty model")
	}
	shape := append([]int(nil), inputShape...)
	if shapeLen(shape) == 0 {
		return fmt.Errorf("nn: empty input shape %v", inputShape)
	}
	for i, l := range m.layers {
		out, err := l.Build(src, shape)
		if err != nil {
			return fmt.Errorf("nn: building layer %d (%s): %w", i, l.Kind(), err)
		}
		shape = out
	}
	m.firstParam = -1
	for i, l := range m.layers {
		ps := l.Params()
		if len(ps) > 0 && m.firstParam < 0 {
			if err := checkParamGrad(l); err != nil {
				return fmt.Errorf("nn: layer %d: %w", i, err)
			}
			m.firstParam = i
		}
		m.params = append(m.params, ps...)
	}
	m.inputShape = append([]int(nil), inputShape...)
	m.outputShape = shape
	m.built = true
	return nil
}

// checkParamGrad rejects a layer with parameters but no parameter-gradient
// kernel, which backwardBatch could not stop at.
func checkParamGrad(l Layer) error {
	if _, ok := l.(paramGradLayer); len(l.Params()) > 0 && !ok {
		return fmt.Errorf("%s layer has parameters but no parameter-gradient kernel", l.Kind())
	}
	return nil
}

// InputShape returns the built input shape.
func (m *Model) InputShape() []int { return m.inputShape }

// OutputShape returns the built output shape.
func (m *Model) OutputShape() []int { return m.outputShape }

// InputLen returns the flat input size.
func (m *Model) InputLen() int { return shapeLen(m.inputShape) }

// OutputLen returns the flat output size.
func (m *Model) OutputLen() int { return shapeLen(m.outputShape) }

// Layers returns the layer stack.
func (m *Model) Layers() []Layer { return m.layers }

// Forward runs one sample through the network and returns the output
// buffer, which is owned by the model and overwritten by the next call.
func (m *Model) Forward(x []float64) []float64 {
	if !m.built {
		panic("nn: Forward before Build")
	}
	if len(x) != m.InputLen() {
		panic(fmt.Sprintf("nn: input length %d, model expects %d", len(x), m.InputLen()))
	}
	for _, l := range m.layers {
		x = l.Forward(x)
	}
	return x
}

// Predict runs Forward with training-mode layers (dropout) disabled and
// copies the output into a fresh slice. The pass runs in inference mode:
// layers skip the input snapshots only Backward would read.
func (m *Model) Predict(x []float64) []float64 {
	m.SetTraining(false)
	m.setInference(true)
	out := m.Forward(x)
	res := make([]float64, len(out))
	copy(res, out)
	m.setInference(false)
	return res
}

// Backward propagates dLoss/dOutput through the stack, accumulating
// parameter gradients. It must follow a Forward call for the same sample.
func (m *Model) Backward(gradOut []float64) []float64 {
	if !m.built {
		panic("nn: Backward before Build")
	}
	g := gradOut
	for i := len(m.layers) - 1; i >= 0; i-- {
		g = m.layers[i].Backward(g)
	}
	return g
}

// Params returns all trainable parameters in layer order. After Build the
// cached list is returned; callers must not append to it.
func (m *Model) Params() []*Param {
	if m.built {
		return m.params
	}
	var ps []*Param
	for _, l := range m.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// NumParams returns the total trainable parameter count.
func (m *Model) NumParams() int {
	n := 0
	for _, p := range m.Params() {
		n += len(p.Data)
	}
	return n
}

// ZeroGrad clears all gradient accumulators.
func (m *Model) ZeroGrad() {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// SetTraining toggles training-mode behaviour on layers that have one.
func (m *Model) SetTraining(training bool) {
	for _, l := range m.layers {
		if ta, ok := l.(trainingAware); ok {
			ta.SetTraining(training)
		}
	}
}

// setInference toggles snapshot-free forward passes on layers that support
// them. Callers must restore the flag to false before any Forward whose
// caches a later Backward will consume.
func (m *Model) setInference(v bool) {
	for _, l := range m.layers {
		if ia, ok := l.(inferenceAware); ok {
			ia.SetInference(v)
		}
	}
}

// Clone returns an independent copy of a built model: same architecture,
// deep-copied parameters, fresh caches.
func (m *Model) Clone() (*Model, error) {
	if !m.built {
		return nil, fmt.Errorf("nn: Clone before Build")
	}
	c := NewModel()
	for _, l := range m.layers {
		nl, err := LayerFromSpec(l.Spec())
		if err != nil {
			return nil, err
		}
		c.Add(nl)
	}
	// Build with a throwaway source, then overwrite parameters.
	if err := c.Build(rng.New(0), m.inputShape...); err != nil {
		return nil, err
	}
	src := m.Params()
	dst := c.Params()
	for i := range src {
		copy(dst[i].Data, src[i].Data)
	}
	return c, nil
}

// hasDropout reports whether any layer needs per-sample mask streams
// during training.
func (m *Model) hasDropout() bool {
	for _, l := range m.layers {
		if _, ok := l.(*Dropout); ok {
			return true
		}
	}
	return false
}

// PredictBatch runs inference over all rows of x, returning one freshly
// allocated prediction per row. The rows are packed into one block and
// forwarded once through the batched kernels (im2col + blocked GEMM),
// which are bit-identical to calling Predict row by row. The convolution,
// activation and LSTM kernels shard each call over workers goroutines
// (0 = all cores, at most one per row), exactly as they do inside a fit,
// so the result does not depend on workers. Steady-state calls allocate
// only the returned slices.
//
// PredictBatch runs on the model's own layer caches, so a model serves one
// PredictBatch at a time: the serve registry calls it from the one
// dispatcher goroutine of each model, and core calls it serially.
func (m *Model) PredictBatch(x [][]float64, workers int) ([][]float64, error) {
	if !m.built {
		return nil, fmt.Errorf("nn: PredictBatch before Build")
	}
	out := make([][]float64, len(x))
	if len(x) == 0 {
		return out, nil
	}
	m.checkBatchInputs(x)
	inLen, outLen := m.InputLen(), m.OutputLen()
	w := parallel.Resolve(workers)
	if w > len(x) {
		w = len(x)
	}
	// Deferred, so a panic the serve dispatcher recovers leaves the model
	// serial and out of inference mode.
	m.setKernelWorkers(w)
	defer m.setKernelWorkers(1)
	m.SetTraining(false)
	m.setInference(true)
	defer m.setInference(false)
	xb := batchScratch.Get(len(x) * inLen)
	defer batchScratch.Put(xb)
	for i, row := range x {
		copy(xb[i*inLen:(i+1)*inLen], row)
	}
	yb := m.forwardBatch(xb, len(x))
	for s := range out {
		res := make([]float64, outLen)
		copy(res, yb[s*outLen:(s+1)*outLen])
		out[s] = res
	}
	return out, nil
}

// CopyParamsFrom copies parameter values from other, which must have an
// identical architecture.
func (m *Model) CopyParamsFrom(other *Model) error {
	a, b := m.Params(), other.Params()
	if len(a) != len(b) {
		return fmt.Errorf("nn: parameter-set mismatch (%d vs %d tensors)", len(a), len(b))
	}
	for i := range a {
		if len(a[i].Data) != len(b[i].Data) {
			return fmt.Errorf("nn: parameter tensor %d size mismatch", i)
		}
		copy(a[i].Data, b[i].Data)
	}
	return nil
}

// Summary returns a human-readable architecture table in the spirit of the
// paper's Table 1.
func (m *Model) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-4s %-20s %-14s %10s\n", "#", "Layer", "Output", "Params")
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 52))
	shape := m.inputShape
	fmt.Fprintf(&sb, "%-4s %-20s %-14v %10d\n", "0", "input", shape, 0)
	// Rebuild shapes by re-deriving from specs is unnecessary: track through
	// layer Build results is not stored per layer, so recompute via OutputShape
	// of sequential dry-run: store during Build would be cleaner; derive here.
	shapes := m.layerShapes()
	for i, l := range m.layers {
		n := 0
		for _, p := range l.Params() {
			n += len(p.Data)
		}
		fmt.Fprintf(&sb, "%-4d %-20s %-14v %10d\n", i+1, l.Kind(), shapes[i], n)
	}
	fmt.Fprintf(&sb, "%s\n", strings.Repeat("-", 52))
	fmt.Fprintf(&sb, "total trainable parameters: %d\n", m.NumParams())
	return sb.String()
}

// LayerOutputShapes returns the output shape of every layer in order,
// derived from the built input shape. Used by the platform cost model to
// count per-layer operations.
func (m *Model) LayerOutputShapes() [][]int {
	if !m.built {
		panic("nn: LayerOutputShapes before Build")
	}
	return m.layerShapes()
}

// layerShapes recomputes per-layer output shapes from the specs (shape
// inference only, no allocation of new models).
func (m *Model) layerShapes() [][]int {
	shapes := make([][]int, len(m.layers))
	shape := m.inputShape
	for i, l := range m.layers {
		shape = inferShape(l, shape)
		shapes[i] = shape
	}
	return shapes
}

// inferShape mirrors each layer's Build-time shape computation without
// touching parameters.
func inferShape(l Layer, in []int) []int {
	switch v := l.(type) {
	case *Dense:
		return []int{v.Out}
	case *Conv1D:
		length, _, err := seq2D(in)
		if err != nil {
			return in
		}
		out, err := convOutLen(length, v.Kernel, v.Stride)
		if err != nil {
			return in
		}
		return []int{out, v.Filters}
	case *LocallyConnected1D:
		length, _, err := seq2D(in)
		if err != nil {
			return in
		}
		out, err := convOutLen(length, v.Kernel, v.Stride)
		if err != nil {
			return in
		}
		return []int{out, v.Filters}
	case *MaxPool1D:
		length, ch, err := seq2D(in)
		if err != nil {
			return in
		}
		out, err := convOutLen(length, v.Kernel, v.Stride)
		if err != nil {
			return in
		}
		return []int{out, ch}
	case *AvgPool1D:
		length, ch, err := seq2D(in)
		if err != nil {
			return in
		}
		out, err := convOutLen(length, v.Kernel, v.Stride)
		if err != nil {
			return in
		}
		return []int{out, ch}
	case *LSTM:
		return []int{v.Units}
	case *TimeDistributed:
		if len(in) != 2 {
			return in
		}
		innerIn := v.InnerShape
		if len(innerIn) == 0 {
			innerIn = []int{in[1]}
		}
		return []int{in[0], shapeLen(inferShape(v.Inner, innerIn))}
	case *Flatten:
		return []int{shapeLen(in)}
	case *Reshape:
		return append([]int(nil), v.TargetShape...)
	default:
		return in
	}
}
