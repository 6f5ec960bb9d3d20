package nn

import (
	"fmt"

	"specml/internal/rng"
	"specml/internal/tensor"
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
	x, y, gin           []float64
	infer               bool

	bcol, bdcol, by, bgin []float64 // batched-path caches (bcol: im2col block)
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
	c.x = make([]float64, inLen*inCh)
	c.y = make([]float64, outLen*c.Filters)
	c.gin = make([]float64, inLen*inCh)
	return []int{outLen, c.Filters}, nil
}

// SetInference toggles inference mode (skips the input snapshot).
func (c *Conv1D) SetInference(v bool) { c.infer = v }

// Forward implements Layer.
func (c *Conv1D) Forward(x []float64) []float64 {
	if !c.infer {
		copy(c.x, x)
	}
	fanIn := c.Kernel * c.inCh
	for p := 0; p < c.outLen; p++ {
		base := p * c.Stride * c.inCh
		out := c.y[p*c.Filters : (p+1)*c.Filters]
		// Each output starts from its bias and adds the window products in
		// ascending order; GemmNT keeps that per-element order while
		// feeding four filters from every loaded window element.
		copy(out, c.b.Data)
		tensor.GemmNT(out, x[base:base+fanIn], c.w.Data, 1, c.Filters, fanIn)
	}
	return c.y
}

// Backward implements Layer.
func (c *Conv1D) Backward(gradOut []float64) []float64 {
	fanIn := c.Kernel * c.inCh
	for i := range c.gin {
		c.gin[i] = 0
	}
	for p := 0; p < c.outLen; p++ {
		base := p * c.Stride * c.inCh
		win := c.x[base : base+fanIn]
		ginWin := c.gin[base : base+fanIn]
		g := gradOut[p*c.Filters : (p+1)*c.Filters]
		for f := 0; f < c.Filters; f++ {
			gf := g[f]
			c.b.Grad[f] += gf
			wf := c.w.Data[f*fanIn : (f+1)*fanIn]
			gwf := c.w.Grad[f*fanIn : (f+1)*fanIn]
			for i, v := range win {
				gwf[i] += gf * v
				ginWin[i] += gf * wf[i]
			}
		}
	}
	return c.gin
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
	x, y, gin           []float64

	bx, by, bgin []float64 // batched-path caches (bx aliases the input block)
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
	c.x = make([]float64, inLen*inCh)
	c.y = make([]float64, outLen*c.Filters)
	c.gin = make([]float64, inLen*inCh)
	return []int{outLen, c.Filters}, nil
}

// NumParams returns the trainable parameter count (exposed because the
// paper reports it: 10 532 for the NMR CNN).
func (c *LocallyConnected1D) NumParams() int {
	return len(c.w.Data) + len(c.b.Data)
}

// Forward implements Layer.
func (c *LocallyConnected1D) Forward(x []float64) []float64 {
	copy(c.x, x)
	fanIn := c.Kernel * c.inCh
	for p := 0; p < c.outLen; p++ {
		base := p * c.Stride * c.inCh
		win := x[base : base+fanIn]
		out := c.y[p*c.Filters : (p+1)*c.Filters]
		wp := c.w.Data[p*c.Filters*fanIn : (p+1)*c.Filters*fanIn]
		bp := c.b.Data[p*c.Filters : (p+1)*c.Filters]
		for f := 0; f < c.Filters; f++ {
			wf := wp[f*fanIn : (f+1)*fanIn]
			s := bp[f]
			for i, v := range win {
				s += wf[i] * v
			}
			out[f] = s
		}
	}
	return c.y
}

// Backward implements Layer.
func (c *LocallyConnected1D) Backward(gradOut []float64) []float64 {
	fanIn := c.Kernel * c.inCh
	for i := range c.gin {
		c.gin[i] = 0
	}
	for p := 0; p < c.outLen; p++ {
		base := p * c.Stride * c.inCh
		win := c.x[base : base+fanIn]
		ginWin := c.gin[base : base+fanIn]
		g := gradOut[p*c.Filters : (p+1)*c.Filters]
		wp := c.w.Data[p*c.Filters*fanIn : (p+1)*c.Filters*fanIn]
		gwp := c.w.Grad[p*c.Filters*fanIn : (p+1)*c.Filters*fanIn]
		gbp := c.b.Grad[p*c.Filters : (p+1)*c.Filters]
		for f := 0; f < c.Filters; f++ {
			gf := g[f]
			gbp[f] += gf
			wf := wp[f*fanIn : (f+1)*fanIn]
			gwf := gwp[f*fanIn : (f+1)*fanIn]
			for i, v := range win {
				gwf[i] += gf * v
				ginWin[i] += gf * wf[i]
			}
		}
	}
	return c.gin
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
	argmax            []int
	y, gin            []float64

	bargmax  []int
	by, bgin []float64 // batched-path caches
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
	l.argmax = make([]int, outLen*ch)
	l.y = make([]float64, outLen*ch)
	l.gin = make([]float64, inLen*ch)
	return []int{outLen, ch}, nil
}

// Forward implements Layer.
func (l *MaxPool1D) Forward(x []float64) []float64 {
	for p := 0; p < l.outLen; p++ {
		for c := 0; c < l.ch; c++ {
			bestIdx := (p*l.Stride)*l.ch + c
			best := x[bestIdx]
			for k := 1; k < l.Kernel; k++ {
				idx := (p*l.Stride+k)*l.ch + c
				if x[idx] > best {
					best, bestIdx = x[idx], idx
				}
			}
			l.y[p*l.ch+c] = best
			l.argmax[p*l.ch+c] = bestIdx
		}
	}
	return l.y
}

// Backward implements Layer.
func (l *MaxPool1D) Backward(gradOut []float64) []float64 {
	for i := range l.gin {
		l.gin[i] = 0
	}
	for i, g := range gradOut {
		l.gin[l.argmax[i]] += g
	}
	return l.gin
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
	y, gin            []float64

	by, bgin []float64 // batched-path caches
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
	l.y = make([]float64, outLen*ch)
	l.gin = make([]float64, inLen*ch)
	return []int{outLen, ch}, nil
}

// Forward implements Layer.
func (l *AvgPool1D) Forward(x []float64) []float64 {
	inv := 1 / float64(l.Kernel)
	for p := 0; p < l.outLen; p++ {
		for c := 0; c < l.ch; c++ {
			s := 0.0
			for k := 0; k < l.Kernel; k++ {
				s += x[(p*l.Stride+k)*l.ch+c]
			}
			l.y[p*l.ch+c] = s * inv
		}
	}
	return l.y
}

// Backward implements Layer.
func (l *AvgPool1D) Backward(gradOut []float64) []float64 {
	for i := range l.gin {
		l.gin[i] = 0
	}
	inv := 1 / float64(l.Kernel)
	for p := 0; p < l.outLen; p++ {
		for c := 0; c < l.ch; c++ {
			g := gradOut[p*l.ch+c] * inv
			for k := 0; k < l.Kernel; k++ {
				l.gin[(p*l.Stride+k)*l.ch+c] += g
			}
		}
	}
	return l.gin
}

// Params implements Layer.
func (l *AvgPool1D) Params() []*Param { return nil }

// Spec implements Layer.
func (l *AvgPool1D) Spec() LayerSpec {
	return LayerSpec{Type: "avgpool1d", Kernel: l.Kernel, Stride: l.Stride}
}
