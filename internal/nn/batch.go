package nn

import (
	"fmt"

	"specml/internal/rng"
	"specml/internal/tensor"
	"specml/internal/tensor/pool"
)

// zero clears a scratch slice (the batched kernels accumulate into their
// destinations, so reused buffers must start from +0 like fresh ones).
func zero(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// ---------------------------------------------------------------------------
// Dense

// ForwardBatch implements Layer: one GEMM for the whole block.
func (d *Dense) ForwardBatch(x []float64, n int) []float64 {
	d.bx = x // kept for BackwardBatch; blocks stay alive across one fwd/bwd cycle
	d.by = pool.Grow(d.by, n*d.Out)
	zero(d.by)
	// Per row: accumulator starts at 0, adds w[r][c]*x[c] in ascending c
	// order, bias added afterwards — exactly MatVec + bias in Forward.
	tensor.GemmNT(d.by, x, d.w.Data, n, d.Out, d.in)
	for s := 0; s < n; s++ {
		row := d.by[s*d.Out : (s+1)*d.Out]
		for i := range row {
			row[i] += d.b.Data[i]
		}
	}
	return d.by
}

// BackwardBatch implements Layer.
func (d *Dense) BackwardBatch(gradOut []float64, n int) []float64 {
	d.backwardParams(gradOut, n)
	d.bgin = pool.Grow(d.bgin, n*d.in)
	zero(d.bgin)
	// dX = dY·W: per row, ascending output index with MatTVec's zero-skip.
	tensor.Gemm(d.bgin, gradOut, d.w.Data, n, d.in, d.Out)
	return d.bgin
}

// backwardParams implements paramGradLayer.
func (d *Dense) backwardParams(gradOut []float64, n int) {
	// dW += dYᵀ·X with the batch as the contraction axis: every weight
	// element receives its per-sample contributions in ascending sample
	// order with OuterAccum's zero-skip, matching n sequential Backwards.
	tensor.GemmTN(d.w.Grad, gradOut, d.bx, d.Out, d.in, n, 0, d.Out, nil)
	for s := 0; s < n; s++ {
		grow := gradOut[s*d.Out : (s+1)*d.Out]
		for i, g := range grow {
			d.b.Grad[i] += g
		}
	}
}

// ---------------------------------------------------------------------------
// Conv1D

// ForwardBatch implements Layer: im2col lowering plus one blocked GEMM
// over all samples and output positions, sharded by sample.
func (c *Conv1D) ForwardBatch(x []float64, n int) []float64 {
	fanIn := c.Kernel * c.inCh
	rows := n * c.outLen
	c.bcol = pool.Grow(c.bcol, rows*fanIn)
	c.by = pool.Grow(c.by, rows*c.Filters)
	if w := c.shards(n, rows*c.Filters*fanIn); w > 1 {
		runShards(w, n, func(lo, hi int) { c.forwardSamples(x, lo, hi) })
	} else {
		c.forwardSamples(x, 0, n)
	}
	return c.by
}

// forwardSamples runs the forward pass of samples [lo, hi): their im2col
// rows and their block of GEMM rows.
func (c *Conv1D) forwardSamples(x []float64, lo, hi int) {
	fanIn := c.Kernel * c.inCh
	inSize := c.inLen * c.inCh
	for s := lo; s < hi; s++ {
		tensor.Im2Col(c.bcol[s*c.outLen*fanIn:(s+1)*c.outLen*fanIn],
			x[s*inSize:(s+1)*inSize], c.inLen, c.inCh, c.Kernel, c.Stride, c.outLen)
	}
	r0, r1 := lo*c.outLen, hi*c.outLen
	// The per-sample loop seeds each accumulator with the bias and then
	// adds the window products in ascending order; prefilling C with the
	// bias before the accumulating GEMM reproduces that exactly.
	for r := r0; r < r1; r++ {
		copy(c.by[r*c.Filters:(r+1)*c.Filters], c.b.Data)
	}
	tensor.GemmNT(c.by[r0*c.Filters:r1*c.Filters], c.bcol[r0*fanIn:r1*fanIn], c.w.Data, r1-r0, c.Filters, fanIn)
}

// BackwardBatch implements Layer. The weight gradient contracts the
// cached im2col block against the output gradients in one GEMM, sharded by
// filter; the input gradient keeps the per-position loop structure (GEMM +
// Col2Im when the windows don't overlap), sharded by sample. Both preserve
// the per-sample addition order.
func (c *Conv1D) BackwardBatch(gradOut []float64, n int) []float64 {
	c.backwardParams(gradOut, n)
	fanIn := c.Kernel * c.inCh
	rows := n * c.outLen
	c.bgin = pool.Grow(c.bgin, n*c.inLen*c.inCh)
	if c.Stride >= c.Kernel {
		c.bdcol = pool.Grow(c.bdcol, rows*fanIn)
	}
	if w := c.shards(n, rows*c.Filters*fanIn); w > 1 {
		runShards(w, n, func(lo, hi int) { c.inputGradSamples(gradOut, lo, hi) })
	} else {
		c.inputGradSamples(gradOut, 0, n)
	}
	return c.bgin
}

// backwardParams implements paramGradLayer: the weight and bias gradients,
// sharded by groups of 4 filters, the row group of GemmTN's AVX-512 tile.
func (c *Conv1D) backwardParams(gradOut []float64, n int) {
	rows := n * c.outLen
	groups := (c.Filters + 3) / 4
	if w := c.shards(groups, rows*c.Filters*c.Kernel*c.inCh); w > 1 {
		runShards(w, groups, func(lo, hi int) { c.paramGradFilters(gradOut, rows, 4*lo, min(4*hi, c.Filters)) })
	} else {
		c.paramGradFilters(gradOut, rows, 0, c.Filters)
	}
}

// paramGradFilters accumulates the weight and bias gradients of filters
// [f0, f1). dW += dYᵀ·col: contributions arrive in ascending (sample,
// position) order with the gf==0 skip — the order of n sequential
// Backwards.
func (c *Conv1D) paramGradFilters(gradOut []float64, rows, f0, f1 int) {
	fanIn := c.Kernel * c.inCh
	tensor.GemmTN(c.w.Grad, gradOut, c.bcol, c.Filters, fanIn, rows, f0, f1, nil)
	// One register accumulator per bias element, stored once: the same
	// additions in the same order, without a shard writing into a cache
	// line its neighbour writes for every row.
	for f := f0; f < f1; f++ {
		acc := c.b.Grad[f]
		for r := 0; r < rows; r++ {
			if gf := gradOut[r*c.Filters+f]; gf != 0 {
				acc += gf
			}
		}
		c.b.Grad[f] = acc
	}
}

// inputGradSamples writes the input-gradient rows of samples [lo, hi).
func (c *Conv1D) inputGradSamples(gradOut []float64, lo, hi int) {
	fanIn := c.Kernel * c.inCh
	inSize := c.inLen * c.inCh
	oSize := c.outLen * c.Filters
	zero(c.bgin[lo*inSize : hi*inSize])
	if c.Stride >= c.Kernel {
		// Non-overlapping windows: each input element belongs to exactly one
		// position, so dcol = dY·W scattered by Col2Im adds the same values
		// in the same order as the per-position loop.
		r0, r1 := lo*c.outLen, hi*c.outLen
		dcol := c.bdcol[r0*fanIn : r1*fanIn]
		zero(dcol)
		tensor.Gemm(dcol, gradOut[lo*oSize:hi*oSize], c.w.Data, r1-r0, fanIn, c.Filters)
		for s := lo; s < hi; s++ {
			tensor.Col2Im(c.bgin[s*inSize:(s+1)*inSize],
				c.bdcol[s*c.outLen*fanIn:(s+1)*c.outLen*fanIn],
				c.inLen, c.inCh, c.Kernel, c.Stride, c.outLen)
		}
		return
	}
	// Overlapping windows: an input element collects contributions from
	// several positions interleaved by filter; only the per-sample loop
	// order (position ascending, then filter ascending, zeros skipped)
	// reproduces that addition sequence.
	for s := lo; s < hi; s++ {
		gin := c.bgin[s*inSize : (s+1)*inSize]
		gs := gradOut[s*oSize : (s+1)*oSize]
		for p := 0; p < c.outLen; p++ {
			base := p * c.Stride * c.inCh
			c.windowGrad(gin[base:base+fanIn], gs[p*c.Filters:(p+1)*c.Filters])
		}
	}
}

// windowGrad adds Σ_f g[f]·W[f] to one window of the input gradient,
// filters ascending and zero g[f] skipped, like the per-sample Backward.
// Non-zero filters are taken four at a time so each window element is
// loaded and stored once per four products; the element still receives
// them one rounded addition at a time, in filter order.
func (c *Conv1D) windowGrad(win, g []float64) {
	fanIn := len(win)
	w := c.w.Data
	f := 0
	for {
		var nz [4]int
		k := 0
		for ; f < len(g) && k < 4; f++ {
			if g[f] != 0 {
				nz[k] = f
				k++
			}
		}
		if k < 4 {
			for _, fi := range nz[:k] {
				tensor.AxpySkipZero(win, g[fi], w[fi*fanIn:(fi+1)*fanIn])
			}
			return
		}
		tensor.Axpy4(win, g[nz[0]], w[nz[0]*fanIn:][:fanIn], g[nz[1]], w[nz[1]*fanIn:][:fanIn],
			g[nz[2]], w[nz[2]*fanIn:][:fanIn], g[nz[3]], w[nz[3]*fanIn:][:fanIn])
	}
}

// ---------------------------------------------------------------------------
// LocallyConnected1D

// ForwardBatch implements Layer. Weights are per-position, so there is
// no single GEMM; instead the position loop moves outermost and the batch
// innermost, streaming the (large) weight tensor once per batch instead of
// once per sample. Each output element keeps its per-sample dot-product
// order: accumulator seeded with the bias, window products ascending.
func (c *LocallyConnected1D) ForwardBatch(x []float64, n int) []float64 {
	fanIn := c.Kernel * c.inCh
	inSize := c.inLen * c.inCh
	c.bx = x
	c.by = pool.Grow(c.by, n*c.outLen*c.Filters)
	for p := 0; p < c.outLen; p++ {
		base := p * c.Stride * c.inCh
		wp := c.w.Data[p*c.Filters*fanIn : (p+1)*c.Filters*fanIn]
		bp := c.b.Data[p*c.Filters : (p+1)*c.Filters]
		for s := 0; s < n; s++ {
			win := x[s*inSize+base : s*inSize+base+fanIn]
			out := c.by[(s*c.outLen+p)*c.Filters : (s*c.outLen+p+1)*c.Filters]
			for f := 0; f < c.Filters; f++ {
				wf := wp[f*fanIn : (f+1)*fanIn]
				acc := bp[f]
				for i, v := range win {
					acc += wf[i] * v
				}
				out[f] = acc
			}
		}
	}
	return c.by
}

// BackwardBatch implements Layer: the exact per-sample loop run over
// the cached input block, samples outermost so every gradient element
// accumulates in ascending sample order like sequential Backward calls.
func (c *LocallyConnected1D) BackwardBatch(gradOut []float64, n int) []float64 {
	c.bgin = pool.Grow(c.bgin, n*c.inLen*c.inCh)
	zero(c.bgin)
	c.backward(gradOut, n, c.bgin)
	return c.bgin
}

// backwardParams implements paramGradLayer.
func (c *LocallyConnected1D) backwardParams(gradOut []float64, n int) {
	c.backward(gradOut, n, nil)
}

// backward accumulates the parameter gradients and, unless gin is nil,
// adds the input gradient into gin. A window element's weight-gradient and
// input-gradient sums are independent, so dropping the second leaves the
// first bit-identical.
func (c *LocallyConnected1D) backward(gradOut []float64, n int, gin []float64) {
	fanIn := c.Kernel * c.inCh
	inSize := c.inLen * c.inCh
	for s := 0; s < n; s++ {
		xs := c.bx[s*inSize : (s+1)*inSize]
		gs := gradOut[s*c.outLen*c.Filters : (s+1)*c.outLen*c.Filters]
		for p := 0; p < c.outLen; p++ {
			base := p * c.Stride * c.inCh
			win := xs[base : base+fanIn]
			var ginWin []float64
			if gin != nil {
				ginWin = gin[s*inSize+base : s*inSize+base+fanIn]
			}
			g := gs[p*c.Filters : (p+1)*c.Filters]
			wp := c.w.Data[p*c.Filters*fanIn : (p+1)*c.Filters*fanIn]
			gwp := c.w.Grad[p*c.Filters*fanIn : (p+1)*c.Filters*fanIn]
			gbp := c.b.Grad[p*c.Filters : (p+1)*c.Filters]
			for f := 0; f < c.Filters; f++ {
				gf := g[f]
				if gf == 0 {
					continue
				}
				gbp[f] += gf
				gwf := gwp[f*fanIn : (f+1)*fanIn]
				if ginWin == nil {
					for i, v := range win {
						gwf[i] += gf * v
					}
					continue
				}
				wf := wp[f*fanIn : (f+1)*fanIn]
				for i, v := range win {
					gwf[i] += gf * v
					ginWin[i] += gf * wf[i]
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// ActivationLayer

// ForwardBatch implements Layer: one pass of the activation's slice
// kernel over the block, sharded by sample. In training mode the same pass
// writes each element's derivative into bgin for BackwardBatch; inference
// skips it, like the input snapshots.
func (l *ActivationLayer) ForwardBatch(x []float64, n int) []float64 {
	size := n * len(l.y)
	l.by = pool.Grow(l.by, size)
	l.startForward(n)
	if w := l.shards(n, size*activationForwardWork); w > 1 {
		runShards(w, n, func(lo, hi int) { l.activate(x, lo*len(l.y), hi*len(l.y)) })
	} else {
		l.activate(x, 0, size)
	}
	return l.by
}

// startForward readies bgin for the derivatives of a training-mode forward
// pass over n rows, or records that an inference pass leaves none.
func (l *ActivationLayer) startForward(n int) {
	if l.infer {
		l.dn = 0
		return
	}
	l.bgin = pool.Grow(l.bgin, n*len(l.y))
	l.dn = n
}

// activate runs the slice kernel over elements [lo, hi) of the block x.
func (l *ActivationLayer) activate(x []float64, lo, hi int) {
	if l.infer {
		l.Act.values(l.by[lo:hi], x[lo:hi])
	} else {
		l.Act.valuesDerivs(l.by[lo:hi], l.bgin[lo:hi], x[lo:hi])
	}
}

// BackwardBatch implements Layer, sharded by sample: gin = g * Deriv(x, y)
// is one multiply by the derivative the forward pass stored, in place. It
// consumes those derivatives, so it must follow a training-mode
// ForwardBatch with the same n.
func (l *ActivationLayer) BackwardBatch(gradOut []float64, n int) []float64 {
	if n != l.dn {
		panic(fmt.Sprintf("nn: activation BackwardBatch(n=%d) without a training-mode ForwardBatch of that n (holds %d)", n, l.dn))
	}
	l.dn = 0
	row := len(l.gin)
	size := n * row
	if w := l.shards(n, size*activationBackwardWork); w > 1 {
		runShards(w, n, func(lo, hi int) { scaleBy(l.bgin[lo*row:hi*row], gradOut[lo*row:hi*row]) })
	} else {
		scaleBy(l.bgin[:size], gradOut[:size])
	}
	return l.bgin[:size]
}

// scaleBy sets d[i] = g[i] * d[i].
func scaleBy(d, g []float64) {
	d = d[:len(g)]
	for i, gv := range g {
		d[i] = gv * d[i]
	}
}

// ---------------------------------------------------------------------------
// SoftmaxLayer

// ForwardBatch implements Layer: the per-group softmax of Forward, run
// over every row of the block.
func (l *SoftmaxLayer) ForwardBatch(x []float64, n int) []float64 {
	nf := len(l.y)
	l.by = pool.Grow(l.by, n*nf)
	for s := 0; s < n; s++ {
		for g := 0; g < l.groups; g++ {
			lo, hi := s*nf+g*l.width, s*nf+(g+1)*l.width
			Softmax(l.by[lo:hi], x[lo:hi])
		}
	}
	return l.by
}

// BackwardBatch implements Layer.
func (l *SoftmaxLayer) BackwardBatch(gradOut []float64, n int) []float64 {
	nf := len(l.y)
	l.bgin = pool.Grow(l.bgin, n*nf)
	for s := 0; s < n; s++ {
		for g := 0; g < l.groups; g++ {
			lo, hi := s*nf+g*l.width, s*nf+(g+1)*l.width
			y := l.by[lo:hi]
			grad := gradOut[lo:hi]
			dot := 0.0
			for i, gv := range grad {
				dot += gv * y[i]
			}
			gin := l.bgin[lo:hi]
			for i, gv := range grad {
				gin[i] = y[i] * (gv - dot)
			}
		}
	}
	return l.bgin
}

// ---------------------------------------------------------------------------
// Dropout

// setBatchSources installs one mask stream per sample of the next training
// ForwardBatch; Model.reseedDropoutBatch derives them.
func (l *Dropout) setBatchSources(srcs []*rng.Source) { l.batchSrcs = srcs }

// ForwardBatch implements Layer. Outside training it is the identity
// (no copy, like the snapshot-free inference Forward); in training each row
// draws its mask from its own per-sample stream in element order, exactly
// as Forward does after a per-sample Reseed.
func (l *Dropout) ForwardBatch(x []float64, n int) []float64 {
	if !l.training || l.Rate == 0 {
		l.maskN = 0
		return x
	}
	nf := len(l.y)
	if len(l.batchSrcs) < n {
		panic("nn: dropout ForwardBatch in training mode without per-sample batch sources")
	}
	l.bmask = pool.Grow(l.bmask, n*nf)
	l.by = pool.Grow(l.by, n*nf)
	keep := 1 - l.Rate
	inv := 1 / keep
	for s := 0; s < n; s++ {
		src := l.batchSrcs[s]
		row := x[s*nf : (s+1)*nf]
		mrow := l.bmask[s*nf : (s+1)*nf]
		orow := l.by[s*nf : (s+1)*nf]
		for i, v := range row {
			if src.Float64() < keep {
				mrow[i] = inv
			} else {
				mrow[i] = 0
			}
			orow[i] = v * mrow[i]
		}
	}
	l.maskN = n
	return l.by
}

// BackwardBatch implements Layer. In training it reads the masks of the
// last ForwardBatch, which must have drawn them for the same n.
func (l *Dropout) BackwardBatch(gradOut []float64, n int) []float64 {
	if !l.training || l.Rate == 0 {
		return gradOut
	}
	if n != l.maskN {
		panic(fmt.Sprintf("nn: dropout BackwardBatch(n=%d) without a training-mode ForwardBatch of that n (holds %d)", n, l.maskN))
	}
	nf := len(l.y)
	l.bgin = pool.Grow(l.bgin, n*nf)
	for i, g := range gradOut {
		l.bgin[i] = g * l.bmask[i]
	}
	return l.bgin
}

// ---------------------------------------------------------------------------
// Shape-only layers

// ForwardBatch implements Layer (flat blocks make reshape a no-op).
func (l *Reshape) ForwardBatch(x []float64, _ int) []float64 { return x }

// BackwardBatch implements Layer.
func (l *Reshape) BackwardBatch(gradOut []float64, _ int) []float64 { return gradOut }

// ForwardBatch implements Layer.
func (l *Flatten) ForwardBatch(x []float64, _ int) []float64 { return x }

// BackwardBatch implements Layer.
func (l *Flatten) BackwardBatch(gradOut []float64, _ int) []float64 { return gradOut }

// ---------------------------------------------------------------------------
// Pooling

// ForwardBatch implements Layer.
func (l *MaxPool1D) ForwardBatch(x []float64, n int) []float64 {
	inSize := l.inLen * l.ch
	oSize := l.outLen * l.ch
	l.by = pool.Grow(l.by, n*oSize)
	l.bargmax = pool.GrowInts(l.bargmax, n*oSize)
	for s := 0; s < n; s++ {
		xs := x[s*inSize : (s+1)*inSize]
		ys := l.by[s*oSize : (s+1)*oSize]
		am := l.bargmax[s*oSize : (s+1)*oSize]
		for p := 0; p < l.outLen; p++ {
			for c := 0; c < l.ch; c++ {
				bestIdx := (p*l.Stride)*l.ch + c
				best := xs[bestIdx]
				for k := 1; k < l.Kernel; k++ {
					idx := (p*l.Stride+k)*l.ch + c
					if xs[idx] > best {
						best, bestIdx = xs[idx], idx
					}
				}
				ys[p*l.ch+c] = best
				am[p*l.ch+c] = bestIdx // sample-local index, like Forward
			}
		}
	}
	return l.by
}

// BackwardBatch implements Layer.
func (l *MaxPool1D) BackwardBatch(gradOut []float64, n int) []float64 {
	inSize := l.inLen * l.ch
	oSize := l.outLen * l.ch
	l.bgin = pool.Grow(l.bgin, n*inSize)
	zero(l.bgin)
	for s := 0; s < n; s++ {
		gin := l.bgin[s*inSize : (s+1)*inSize]
		grow := gradOut[s*oSize : (s+1)*oSize]
		am := l.bargmax[s*oSize : (s+1)*oSize]
		for i, g := range grow {
			gin[am[i]] += g
		}
	}
	return l.bgin
}

// ForwardBatch implements Layer.
func (l *AvgPool1D) ForwardBatch(x []float64, n int) []float64 {
	inSize := l.inLen * l.ch
	oSize := l.outLen * l.ch
	l.by = pool.Grow(l.by, n*oSize)
	inv := 1 / float64(l.Kernel)
	for s := 0; s < n; s++ {
		xs := x[s*inSize : (s+1)*inSize]
		ys := l.by[s*oSize : (s+1)*oSize]
		for p := 0; p < l.outLen; p++ {
			for c := 0; c < l.ch; c++ {
				sum := 0.0
				for k := 0; k < l.Kernel; k++ {
					sum += xs[(p*l.Stride+k)*l.ch+c]
				}
				ys[p*l.ch+c] = sum * inv
			}
		}
	}
	return l.by
}

// BackwardBatch implements Layer.
func (l *AvgPool1D) BackwardBatch(gradOut []float64, n int) []float64 {
	inSize := l.inLen * l.ch
	oSize := l.outLen * l.ch
	l.bgin = pool.Grow(l.bgin, n*inSize)
	zero(l.bgin)
	inv := 1 / float64(l.Kernel)
	for s := 0; s < n; s++ {
		gin := l.bgin[s*inSize : (s+1)*inSize]
		grow := gradOut[s*oSize : (s+1)*oSize]
		for p := 0; p < l.outLen; p++ {
			for c := 0; c < l.ch; c++ {
				g := grow[p*l.ch+c] * inv
				for k := 0; k < l.Kernel; k++ {
					gin[(p*l.Stride+k)*l.ch+c] += g
				}
			}
		}
	}
	return l.bgin
}

// ---------------------------------------------------------------------------
// Model drivers

// batchScratch recycles the flattened input blocks assembled by
// PredictBatch across calls (the serve dispatcher flushes continuously, so
// steady-state batching must not allocate per flush).
var batchScratch pool.Pool

// forwardBatch runs n row-major samples through the stack's batched
// kernels. A Dense layer feeding an activation runs both in one pass. The
// returned [n x outLen] block is owned by the model's layers and
// overwritten by the next call.
func (m *Model) forwardBatch(x []float64, n int) []float64 {
	for li := 0; li < len(m.layers); li++ {
		l := m.layers[li]
		if li+1 < len(m.layers) {
			if d, ok := l.(*Dense); ok {
				if a, ok := m.layers[li+1].(*ActivationLayer); ok {
					x = d.forwardBatchFused(x, n, a)
					li++ // the activation layer ran inside the fused step
					continue
				}
			}
		}
		x = l.ForwardBatch(x, n)
	}
	return x
}

// forwardBatchFused is ForwardBatch for a Dense layer immediately followed
// by an activation: each output row gets its bias and then the
// activation's slice kernel while it is still in cache, skipping one full
// traversal of the block. Both layers' caches end up exactly as the
// unfused pair would leave them, so BackwardBatch needs no fusion
// awareness and gradients are bit-identical.
func (d *Dense) forwardBatchFused(x []float64, n int, a *ActivationLayer) []float64 {
	d.bx = x
	d.by = pool.Grow(d.by, n*d.Out)
	zero(d.by)
	tensor.GemmNT(d.by, x, d.w.Data, n, d.Out, d.in)
	a.by = pool.Grow(a.by, n*d.Out)
	a.startForward(n)
	for s := 0; s < n; s++ {
		row := d.by[s*d.Out : (s+1)*d.Out]
		for i := range row {
			row[i] += d.b.Data[i]
		}
		a.activate(d.by, s*d.Out, (s+1)*d.Out)
	}
	return a.by
}

// paramGradLayer is the parameter-gradient half of BackwardBatch. Every
// layer with parameters implements it (Model.Build checks), so the lowest
// one of a model accumulates its gradients without computing the input
// gradient that nothing reads.
type paramGradLayer interface {
	backwardParams(gradOut []float64, n int)
}

// backwardBatch propagates a [n x outLen] gradient block down the stack,
// accumulating parameter gradients exactly like n sequential Backward
// calls. It stops at the lowest layer with parameters, which computes only
// its parameter gradients: the input gradient below it has no reader.
func (m *Model) backwardBatch(gradOut []float64, n int) {
	if m.firstParam < 0 {
		return
	}
	g := gradOut
	for i := len(m.layers) - 1; i > m.firstParam; i-- {
		g = m.layers[i].BackwardBatch(g, n)
	}
	m.layers[m.firstParam].(paramGradLayer).backwardParams(g, n)
}

// reseedDropoutBatch gives every dropout layer one mask stream per sample,
// derived as rng.New(the sample's seed) followed by one Split per dropout
// layer in layer order.
func (m *Model) reseedDropoutBatch(seeds []uint64) {
	var drops []*Dropout
	for _, l := range m.layers {
		if d, ok := l.(*Dropout); ok {
			drops = append(drops, d)
			if cap(d.batchSrcs) < len(seeds) {
				d.batchSrcs = make([]*rng.Source, len(seeds))
			}
			d.batchSrcs = d.batchSrcs[:len(seeds)]
		}
	}
	for j, seed := range seeds {
		src := rng.New(seed)
		for _, d := range drops {
			d.batchSrcs[j] = src.Split()
		}
	}
}

// checkBatchInputs panics like Forward on a row of the wrong width, before
// any kernel runs, so the serve dispatcher's recover turns it into a batch
// error.
func (m *Model) checkBatchInputs(x [][]float64) {
	inLen := m.InputLen()
	for _, row := range x {
		if len(row) != inLen {
			panic(fmt.Sprintf("nn: input length %d, model expects %d", len(row), inLen))
		}
	}
}
