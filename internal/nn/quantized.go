package nn

import (
	"fmt"

	"specml/internal/tensor"
	"specml/internal/tensor/pool"
)

// QuantizedModel is an int8 inference engine derived from a trained Model.
//
// Dense and Conv1D layers execute as packed int8 GEMMs with int32
// accumulation: weights carry one symmetric scale per output channel
// (scale = maxAbs(row)/127, no zero point), activations are quantized
// dynamically with one symmetric scale per SAMPLE per layer, and outputs
// dequantize back to float64 before the bias add, so activations,
// softmax, pooling and every other layer run unchanged in float. Per-
// sample activation scales keep the serve contract intact: a sample's
// result does not depend on what else is in the batch. Layers without an
// int8 kernel (LSTM, TimeDistributed, LocallyConnected1D, ...) fall back
// to their float path inside the same forward pass.
//
// The accuracy contract is a bounded delta versus the float model —
// ≥99% argmax agreement for classifiers, ≤1% MAE drift for regressors on
// the seeded corpora (quantize_accuracy_test.go) — NOT bit-exactness:
// int8 codes discard mantissa bits by design. Within the quantized path
// itself, scalar and AVX2 dispatch ARE bit-identical (integer
// accumulation is exact; see internal/tensor/int8.go).
//
// A QuantizedModel is inference-only and NOT safe for concurrent use
// (layer scratch is shared across calls, like Model.Forward); the serve
// batcher serializes calls per model entry, which is the intended use.
type QuantizedModel struct {
	m      *Model // independent clone: float fallback layers + architecture
	steps  []qStep
	nQuant int
}

// qStep is one layer of the quantized forward pass over a row-major
// [n x features] block: an int8 kernel, or a float Layer's batched kernel.
type qStep interface {
	ForwardBatch(x []float64, n int) []float64
}

// Quantize builds the int8 engine from a trained model. The model must be
// built; it is deep-copied, so later training of m does not affect the
// quantized engine (re-quantize after retraining).
func Quantize(m *Model) (*QuantizedModel, error) {
	if !m.built {
		return nil, fmt.Errorf("nn: Quantize before Build")
	}
	clone, err := m.Clone()
	if err != nil {
		return nil, err
	}
	// Inference-only: training layers off, snapshot-free forwards on, for
	// the lifetime of the engine.
	clone.SetTraining(false)
	clone.setInference(true)
	q := &QuantizedModel{m: clone}
	for _, l := range clone.layers {
		switch v := l.(type) {
		case *Dense:
			q.steps = append(q.steps, newQDense(v))
			q.nQuant++
		case *Conv1D:
			q.steps = append(q.steps, newQConv1D(v))
			q.nQuant++
		default:
			q.steps = append(q.steps, l)
		}
	}
	return q, nil
}

// InputLen returns the flat input size.
func (q *QuantizedModel) InputLen() int { return q.m.InputLen() }

// OutputLen returns the flat output size.
func (q *QuantizedModel) OutputLen() int { return q.m.OutputLen() }

// InputShape returns the built input shape.
func (q *QuantizedModel) InputShape() []int { return q.m.InputShape() }

// OutputShape returns the built output shape.
func (q *QuantizedModel) OutputShape() []int { return q.m.OutputShape() }

// NumParams returns the trainable parameter count of the source model.
func (q *QuantizedModel) NumParams() int { return q.m.NumParams() }

// QuantizedLayers returns how many layers execute in int8 (the rest run
// their float fallback).
func (q *QuantizedModel) QuantizedLayers() int { return q.nQuant }

// forwardBatch runs n row-major samples through the quantized stack. The
// returned [n x outLen] block is owned by the engine and overwritten by
// the next call.
func (q *QuantizedModel) forwardBatch(x []float64, n int) []float64 {
	for _, st := range q.steps {
		x = st.ForwardBatch(x, n)
	}
	return x
}

// Predict runs one sample and returns a fresh output slice.
func (q *QuantizedModel) Predict(x []float64) []float64 {
	if len(x) != q.InputLen() {
		panic(fmt.Sprintf("nn: input length %d, model expects %d", len(x), q.InputLen()))
	}
	out := q.forwardBatch(x, 1)
	res := make([]float64, len(out))
	copy(res, out)
	return res
}

// PredictBatch mirrors Model.PredictBatch for the quantized engine: all
// rows are packed into one block and forwarded through the int8 kernels,
// returning one fresh prediction per row. The workers argument is
// accepted for call-site compatibility and ignored — the engine's shared
// layer scratch makes it single-goroutine; per-sample activation scales
// mean the results are identical for any batch split regardless.
func (q *QuantizedModel) PredictBatch(x [][]float64, workers int) ([][]float64, error) {
	_ = workers
	out := make([][]float64, len(x))
	if len(x) == 0 {
		return out, nil
	}
	q.m.checkBatchInputs(x)
	inLen, outLen := q.InputLen(), q.OutputLen()
	xb := batchScratch.Get(len(x) * inLen)
	defer batchScratch.Put(xb)
	for i, row := range x {
		copy(xb[i*inLen:(i+1)*inLen], row)
	}
	yb := q.forwardBatch(xb, len(x))
	for s := range x {
		res := make([]float64, outLen)
		copy(res, yb[s*outLen:(s+1)*outLen])
		out[s] = res
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Quantized Dense

// qDense executes y = dequant(qx · qwᵀ) + b: per-sample input scales,
// per-output-channel weight scales, contraction padded to the AVX2 panel.
type qDense struct {
	in, out, kp int
	w           []int8    // [out][kp], rows zero-padded past in
	ws          []float64 // per-output-channel weight scales
	b           []float64

	qx  []int8 // [n][kp] quantized activations
	xs  []float64
	acc []int32
	y   []float64
}

func newQDense(d *Dense) *qDense {
	q := &qDense{
		in:  d.in,
		out: d.Out,
		kp:  tensor.KPad16(d.in),
		b:   append([]float64(nil), d.b.Data...),
	}
	q.w = make([]int8, q.out*q.kp)
	q.ws = make([]float64, q.out)
	for o := 0; o < q.out; o++ {
		q.ws[o] = tensor.QuantizeRowInt8(q.w[o*q.kp:(o+1)*q.kp], d.w.Data[o*q.in:(o+1)*q.in])
	}
	return q
}

func (q *qDense) ForwardBatch(x []float64, n int) []float64 {
	q.qx = pool.Grow8(q.qx, n*q.kp)
	q.xs = pool.Grow(q.xs, n)
	q.acc = pool.Grow32(q.acc, n*q.out)
	q.y = pool.Grow(q.y, n*q.out)
	for s := 0; s < n; s++ {
		q.xs[s] = tensor.QuantizeRowInt8(q.qx[s*q.kp:(s+1)*q.kp], x[s*q.in:(s+1)*q.in])
	}
	for i := range q.acc {
		q.acc[i] = 0
	}
	tensor.GemmInt8NT(q.acc, q.qx, q.w, n, q.out, q.kp)
	for s := 0; s < n; s++ {
		sx := q.xs[s]
		arow := q.acc[s*q.out : (s+1)*q.out]
		yrow := q.y[s*q.out : (s+1)*q.out]
		for o, a := range arow {
			yrow[o] = float64(a)*(sx*q.ws[o]) + q.b[o]
		}
	}
	return q.y
}

// ---------------------------------------------------------------------------
// Quantized Conv1D

// qConv1D lowers the convolution through an int8 im2col: the whole input
// sample is quantized once (one scale per sample), windows are gathered
// into panel-padded rows, and all positions of all samples collapse into
// a single int8 GEMM against the per-filter weight rows.
type qConv1D struct {
	inLen, inCh, outLen      int
	kernel, stride, filters  int
	fanIn, kp, inSize, oSize int
	w                        []int8 // [filters][kp]
	ws                       []float64
	b                        []float64

	qx  []int8 // [n][inSize] quantized input codes
	xs  []float64
	col []int8 // [n*outLen][kp] lowered windows
	acc []int32
	y   []float64
}

func newQConv1D(c *Conv1D) *qConv1D {
	q := &qConv1D{
		inLen:   c.inLen,
		inCh:    c.inCh,
		outLen:  c.outLen,
		kernel:  c.Kernel,
		stride:  c.Stride,
		filters: c.Filters,
		fanIn:   c.Kernel * c.inCh,
		inSize:  c.inLen * c.inCh,
		b:       append([]float64(nil), c.b.Data...),
	}
	q.kp = tensor.KPad16(q.fanIn)
	q.oSize = q.outLen * q.filters
	q.w = make([]int8, q.filters*q.kp)
	q.ws = make([]float64, q.filters)
	for f := 0; f < q.filters; f++ {
		q.ws[f] = tensor.QuantizeRowInt8(q.w[f*q.kp:(f+1)*q.kp], c.w.Data[f*q.fanIn:(f+1)*q.fanIn])
	}
	return q
}

func (q *qConv1D) ForwardBatch(x []float64, n int) []float64 {
	rows := n * q.outLen
	q.qx = pool.Grow8(q.qx, n*q.inSize)
	q.xs = pool.Grow(q.xs, n)
	q.col = pool.Grow8(q.col, rows*q.kp)
	q.acc = pool.Grow32(q.acc, rows*q.filters)
	q.y = pool.Grow(q.y, rows*q.filters)
	for s := 0; s < n; s++ {
		qrow := q.qx[s*q.inSize : (s+1)*q.inSize]
		q.xs[s] = tensor.QuantizeRowInt8(qrow, x[s*q.inSize:(s+1)*q.inSize])
		tensor.Im2ColInt8(q.col[s*q.outLen*q.kp:(s+1)*q.outLen*q.kp], qrow,
			q.inLen, q.inCh, q.kernel, q.stride, q.outLen, q.kp)
	}
	for i := range q.acc {
		q.acc[i] = 0
	}
	tensor.GemmInt8NT(q.acc, q.col, q.w, rows, q.filters, q.kp)
	for r := 0; r < rows; r++ {
		sx := q.xs[r/q.outLen]
		arow := q.acc[r*q.filters : (r+1)*q.filters]
		yrow := q.y[r*q.filters : (r+1)*q.filters]
		for f, a := range arow {
			yrow[f] = float64(a)*(sx*q.ws[f]) + q.b[f]
		}
	}
	return q.y
}
