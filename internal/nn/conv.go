package nn

import (
	"fmt"

	"specml/internal/rng"
)

// convOutLen returns the number of valid output positions for a 1-D
// convolution without padding.
func convOutLen(inLen, kernel, stride int) (int, error) {
	if kernel <= 0 || stride <= 0 {
		return 0, fmt.Errorf("nn: kernel and stride must be positive (kernel=%d, stride=%d)", kernel, stride)
	}
	if inLen < kernel {
		return 0, fmt.Errorf("nn: input length %d shorter than kernel %d", inLen, kernel)
	}
	return (inLen-kernel)/stride + 1, nil
}

// seq2D validates a [length, channels] input shape.
func seq2D(shape []int) (length, channels int, err error) {
	switch len(shape) {
	case 2:
		if shape[0] <= 0 || shape[1] <= 0 {
			return 0, 0, fmt.Errorf("nn: invalid sequence shape %v", shape)
		}
		return shape[0], shape[1], nil
	case 1:
		// A bare vector is treated as a single-channel sequence, which lets
		// spectra feed a convolution without an explicit Reshape.
		if shape[0] <= 0 {
			return 0, 0, fmt.Errorf("nn: invalid sequence shape %v", shape)
		}
		return shape[0], 1, nil
	default:
		return 0, 0, fmt.Errorf("nn: conv layers need a 1-D sequence shape, got %v", shape)
	}
}

// Conv1D is a valid-padding 1-D convolution with channels-last layout:
// the input is [length, channels] flattened row-major, the output is
// [outLen, Filters]. Weights are shared across positions.
type Conv1D struct {
	Filters int
	Kernel  int
	Stride  int
	Init    string // "glorot" (default) or "lecun"

	inLen, inCh, outLen int
	w, b                *Param // w layout: [filter][k][inCh]

	bcol, bdcol, by, bgin []float64 // forward/backward caches (bcol: im2col block)
	kernelShards
}

// NewConv1D returns a Conv1D layer.
func NewConv1D(filters, kernel, stride int) *Conv1D {
	return &Conv1D{Filters: filters, Kernel: kernel, Stride: stride}
}

// Kind implements Layer.
func (c *Conv1D) Kind() string { return "conv1d" }

// Build implements Layer.
func (c *Conv1D) Build(src *rng.Source, inputShape []int) ([]int, error) {
	if c.Filters <= 0 {
		return nil, fmt.Errorf("nn: conv1d needs positive Filters, got %d", c.Filters)
	}
	inLen, inCh, err := seq2D(inputShape)
	if err != nil {
		return nil, err
	}
	outLen, err := convOutLen(inLen, c.Kernel, c.Stride)
	if err != nil {
		return nil, err
	}
	c.inLen, c.inCh, c.outLen = inLen, inCh, outLen
	fanIn := c.Kernel * inCh
	c.w = newParam("w", c.Filters*fanIn)
	c.b = newParam("b", c.Filters)
	if c.Init == "lecun" {
		lecunNormal(src, c.w.Data, fanIn)
	} else {
		glorotUniform(src, c.w.Data, fanIn, c.Filters)
	}
	return []int{outLen, c.Filters}, nil
}

// Params implements Layer.
func (c *Conv1D) Params() []*Param { return []*Param{c.w, c.b} }

// Spec implements Layer.
func (c *Conv1D) Spec() LayerSpec {
	return LayerSpec{Type: "conv1d", Filters: c.Filters, Kernel: c.Kernel, Stride: c.Stride, Init: c.Init}
}

// LocallyConnected1D is a 1-D convolution whose weights are NOT shared
// across positions — each output position has its own kernel, as in
// Keras' LocallyConnected1D. This is the layer type of the paper's NMR
// CNN ("locally connected 1-D convolutional layer, four filters, strides
// and kernel size 9").
type LocallyConnected1D struct {
	Filters int
	Kernel  int
	Stride  int
	Init    string

	inLen, inCh, outLen int
	w, b                *Param // w layout: [pos][filter][k][inCh]; b: [pos][filter]

	bx, by, bgin []float64 // forward/backward caches (bx aliases the input block)
}

// NewLocallyConnected1D returns a locally connected 1-D layer.
func NewLocallyConnected1D(filters, kernel, stride int) *LocallyConnected1D {
	return &LocallyConnected1D{Filters: filters, Kernel: kernel, Stride: stride}
}

// Kind implements Layer.
func (c *LocallyConnected1D) Kind() string { return "locallyconnected1d" }

// Build implements Layer.
func (c *LocallyConnected1D) Build(src *rng.Source, inputShape []int) ([]int, error) {
	if c.Filters <= 0 {
		return nil, fmt.Errorf("nn: locallyconnected1d needs positive Filters, got %d", c.Filters)
	}
	inLen, inCh, err := seq2D(inputShape)
	if err != nil {
		return nil, err
	}
	outLen, err := convOutLen(inLen, c.Kernel, c.Stride)
	if err != nil {
		return nil, err
	}
	c.inLen, c.inCh, c.outLen = inLen, inCh, outLen
	fanIn := c.Kernel * inCh
	c.w = newParam("w", outLen*c.Filters*fanIn)
	c.b = newParam("b", outLen*c.Filters)
	if c.Init == "lecun" {
		lecunNormal(src, c.w.Data, fanIn)
	} else {
		glorotUniform(src, c.w.Data, fanIn, c.Filters)
	}
	return []int{outLen, c.Filters}, nil
}

// NumParams returns the trainable parameter count (exposed because the
// paper reports it: 10 532 for the NMR CNN).
func (c *LocallyConnected1D) NumParams() int {
	return len(c.w.Data) + len(c.b.Data)
}

// Params implements Layer.
func (c *LocallyConnected1D) Params() []*Param { return []*Param{c.w, c.b} }

// Spec implements Layer.
func (c *LocallyConnected1D) Spec() LayerSpec {
	return LayerSpec{Type: "locallyconnected1d", Filters: c.Filters, Kernel: c.Kernel, Stride: c.Stride, Init: c.Init}
}

// MaxPool1D takes the per-channel maximum over non-overlapping (or
// strided) windows of a [length, channels] sequence.
type MaxPool1D struct {
	Kernel int
	Stride int

	inLen, ch, outLen int

	bargmax  []int
	by, bgin []float64 // forward/backward caches
}

// NewMaxPool1D returns a max-pooling layer. Stride defaults to Kernel when 0.
func NewMaxPool1D(kernel, stride int) *MaxPool1D {
	if stride == 0 {
		stride = kernel
	}
	return &MaxPool1D{Kernel: kernel, Stride: stride}
}

// Kind implements Layer.
func (l *MaxPool1D) Kind() string { return "maxpool1d" }

// Build implements Layer.
func (l *MaxPool1D) Build(_ *rng.Source, inputShape []int) ([]int, error) {
	inLen, ch, err := seq2D(inputShape)
	if err != nil {
		return nil, err
	}
	outLen, err := convOutLen(inLen, l.Kernel, l.Stride)
	if err != nil {
		return nil, err
	}
	l.inLen, l.ch, l.outLen = inLen, ch, outLen
	return []int{outLen, ch}, nil
}

// Params implements Layer.
func (l *MaxPool1D) Params() []*Param { return nil }

// Spec implements Layer.
func (l *MaxPool1D) Spec() LayerSpec {
	return LayerSpec{Type: "maxpool1d", Kernel: l.Kernel, Stride: l.Stride}
}

// AvgPool1D averages per-channel windows of a [length, channels] sequence.
type AvgPool1D struct {
	Kernel int
	Stride int

	inLen, ch, outLen int

	by, bgin []float64 // forward/backward caches
}

// NewAvgPool1D returns an average-pooling layer. Stride defaults to Kernel
// when 0.
func NewAvgPool1D(kernel, stride int) *AvgPool1D {
	if stride == 0 {
		stride = kernel
	}
	return &AvgPool1D{Kernel: kernel, Stride: stride}
}

// Kind implements Layer.
func (l *AvgPool1D) Kind() string { return "avgpool1d" }

// Build implements Layer.
func (l *AvgPool1D) Build(_ *rng.Source, inputShape []int) ([]int, error) {
	inLen, ch, err := seq2D(inputShape)
	if err != nil {
		return nil, err
	}
	outLen, err := convOutLen(inLen, l.Kernel, l.Stride)
	if err != nil {
		return nil, err
	}
	l.inLen, l.ch, l.outLen = inLen, ch, outLen
	return []int{outLen, ch}, nil
}

// Params implements Layer.
func (l *AvgPool1D) Params() []*Param { return nil }

// Spec implements Layer.
func (l *AvgPool1D) Spec() LayerSpec {
	return LayerSpec{Type: "avgpool1d", Kernel: l.Kernel, Stride: l.Stride}
}
