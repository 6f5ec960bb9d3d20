package nn

import (
	"math"

	"specml/internal/tensor"
	"specml/internal/tensor/pool"
)

// Batched LSTM kernels. The per-sample reference (oracle_test.go) computes,
// for every timestep and gate row, one scalar chain: bias, then the x·Wx
// products in ascending feature order, then the h·Wh products in ascending
// unit order. The batched path reproduces that chain exactly with two GEMMs
// per element:
//
//  1. the input projection for ALL samples and timesteps at once — the gate
//     block is prefilled with the bias and one GemmNT over the time-major
//     [n*steps x features] input adds the x products (GemmNT's accumulator
//     starts from the incoming C value and adds k ascending);
//  2. per timestep, one GemmNT over the [n x units] previous hidden block
//     adds the recurrent products onto the stored partials.
//
// A float64 round-trips through memory exactly, so splitting the chain at
// the x/h boundary performs the identical sequence of rounded additions.
// The fused gate kernel (sigmoid x3 + tanh + cell/hidden update over the
// contiguous gate block) is elementwise and matches the per-sample gate loop
// term for term. All scratch is grow-only: steady-state batches allocate
// nothing.

// ForwardBatch implements Layer: bit-identical to the per-sample reference
// over the n rows, per the single-accumulator ascending-k contract above.
func (l *LSTM) ForwardBatch(x []float64, n int) []float64 {
	u, fts := l.Units, l.features
	rows := n * l.steps
	l.bxT = pool.Grow(l.bxT, rows*fts)
	l.bz = pool.Grow(l.bz, rows*4*u)
	if w := l.shards(rows, rows*4*u*fts); w > 1 {
		runShards(w, rows, func(r0, r1 int) { l.inputProjection(x, n, r0, r1) })
	} else {
		l.inputProjection(x, n, 0, rows)
	}
	l.bhs = pool.Grow(l.bhs, (l.steps+1)*n*u)
	l.bcs = pool.Grow(l.bcs, (l.steps+1)*n*u)
	zero(l.bhs[:n*u])
	zero(l.bcs[:n*u])
	for t := 0; t < l.steps; t++ {
		hPrev := l.bhs[t*n*u : (t+1)*n*u]
		cPrev := l.bcs[t*n*u : (t+1)*n*u]
		h := l.bhs[(t+1)*n*u : (t+2)*n*u]
		cNew := l.bcs[(t+1)*n*u : (t+2)*n*u]
		zt := l.bz[t*n*4*u : (t+1)*n*4*u]
		// Recurrent term for the whole batch: ascending-unit products append
		// to each element's stored bias+x partial.
		tensor.GemmNT(zt, hPrev, l.wh.Data, n, 4*u, u)
		lstmGateBlock(zt, h, cNew, cPrev, n, u)
	}
	return l.bhs[l.steps*n*u : (l.steps+1)*n*u]
}

// inputProjection fills gate rows [r0, r1) with bias + x·Wx. It first
// copies those rows of the sample-major input x into the time-major bxT
// (row r is timestep r/n of sample r%n), which BackwardBatch reads too. The
// gate block is seeded with the bias, exactly like the per-sample
// accumulator; the hoisted GEMM then adds every x product in ascending
// feature order for all the rows at once.
func (l *LSTM) inputProjection(x []float64, n, r0, r1 int) {
	g, fts := 4*l.Units, l.features
	for r := r0; r < r1; r++ {
		t, s := r/n, r%n
		copy(l.bxT[r*fts:(r+1)*fts], x[(s*l.steps+t)*fts:(s*l.steps+t+1)*fts])
		copy(l.bz[r*g:(r+1)*g], l.b.Data)
	}
	tensor.GemmNT(l.bz[r0*g:r1*g], l.bxT[r0*fts:r1*fts], l.wx.Data, r1-r0, g, fts)
}

// lstmGateBlock applies the fused gate nonlinearities in place over a
// [n x 4u] pre-activation block (sigmoid on i, f, o; tanh on g) and writes
// the new cell and hidden rows, mirroring the per-sample gate loop.
func lstmGateBlock(g, h, cNew, cPrev []float64, n, u int) {
	for s := 0; s < n; s++ {
		gr := g[s*4*u : (s+1)*4*u]
		hr := h[s*u : (s+1)*u]
		cn := cNew[s*u : (s+1)*u]
		cp := cPrev[s*u : (s+1)*u]
		for j := 0; j < u; j++ {
			i := sigmoidAct{}.Value(gr[j])
			f := sigmoidAct{}.Value(gr[u+j])
			gg := math.Tanh(gr[2*u+j])
			o := sigmoidAct{}.Value(gr[3*u+j])
			gr[j], gr[u+j], gr[2*u+j], gr[3*u+j] = i, f, gg, o
			cn[j] = f*cp[j] + i*gg
			hr[j] = o * math.Tanh(cn[j])
		}
	}
}

// BackwardBatch implements Layer (batched BPTT). The t-descending sweep
// computes the gate gradients elementwise and propagates dh/dx through
// Gemm, which adds in the per-sample loop's gate order. Parameter
// gradients must arrive in the order n sequential per-sample backward
// passes produce — (sample ascending, timestep DESCENDING) — which is not
// the row order of the t-major gate-gradient block, so after the sweep one
// GemmTN per weight matrix takes the cached gate gradients' rows in exactly
// that order. Under kernel sharding the dx GEMM splits by sample and the
// weight gradients by 4-row gate group; the recurrent dh GEMM (n x u x 4u)
// stays serial.
func (l *LSTM) BackwardBatch(gradOut []float64, n int) []float64 {
	fts := l.features
	l.bdx = pool.Grow(l.bdx, l.steps*n*fts)
	zero(l.bdx)
	l.bptt(gradOut, n, true)
	l.bgin = pool.Grow(l.bgin, n*l.steps*fts)
	for s := 0; s < n; s++ {
		for t := 0; t < l.steps; t++ {
			copy(l.bgin[(s*l.steps+t)*fts:(s*l.steps+t+1)*fts], l.bdx[(t*n+s)*fts:(t*n+s+1)*fts])
		}
	}
	return l.bgin
}

// backwardParams implements paramGradLayer: BPTT without the per-timestep
// dx = dg·Wx GEMM, which costs as many multiply-adds as the forward input
// projection, and without the input-gradient blocks.
func (l *LSTM) backwardParams(gradOut []float64, n int) { l.bptt(gradOut, n, false) }

// bptt runs the t-descending sweep and the deferred parameter-gradient
// loop, adding each timestep's input gradient into bdx when inputGrad is
// set. Only the dx GEMM reads bdx, so leaving it out changes no other sum.
func (l *LSTM) bptt(gradOut []float64, n int, inputGrad bool) {
	u, fts := l.Units, l.features
	l.bdh = pool.Grow(l.bdh, n*u)
	copy(l.bdh, gradOut[:n*u])
	l.bdc = pool.Grow(l.bdc, n*u)
	zero(l.bdc)
	l.bdg = pool.Grow(l.bdg, l.steps*n*4*u)
	for t := l.steps - 1; t >= 0; t-- {
		zt := l.bz[t*n*4*u : (t+1)*n*4*u] // post-activation gates from ForwardBatch
		cPrev := l.bcs[t*n*u : (t+1)*n*u]
		cNew := l.bcs[(t+1)*n*u : (t+2)*n*u]
		dg := l.bdg[t*n*4*u : (t+1)*n*4*u]
		for s := 0; s < n; s++ {
			gr := zt[s*4*u : (s+1)*4*u]
			dgr := dg[s*4*u : (s+1)*4*u]
			dh := l.bdh[s*u : (s+1)*u]
			dc := l.bdc[s*u : (s+1)*u]
			cp := cPrev[s*u : (s+1)*u]
			cn := cNew[s*u : (s+1)*u]
			for j := 0; j < u; j++ {
				i, f, gg, o := gr[j], gr[u+j], gr[2*u+j], gr[3*u+j]
				tc := math.Tanh(cn[j])
				do := dh[j] * tc
				dcTotal := dc[j] + dh[j]*o*(1-tc*tc)
				di := dcTotal * gg
				df := dcTotal * cp[j]
				dgg := dcTotal * i
				dgr[j] = di * i * (1 - i)
				dgr[u+j] = df * f * (1 - f)
				dgr[2*u+j] = dgg * (1 - gg*gg)
				dgr[3*u+j] = do * o * (1 - o)
				dc[j] = dcTotal * f
			}
		}
		zero(l.bdh[:n*u])
		tensor.Gemm(l.bdh[:n*u], dg, l.wh.Data, n, u, 4*u, u, 4*u)
		if !inputGrad {
			continue
		}
		if w := l.shards(n, n*fts*4*u); w > 1 {
			runShards(w, n, func(lo, hi int) { l.inputGradStep(t, n, lo, hi) })
		} else {
			l.inputGradStep(t, n, 0, n)
		}
	}
	// Shard boundaries fall on the 4-row groups of GemmTN's AVX-512 tile.
	order := l.gradOrder(n)
	if w := l.shards(u, n*l.steps*4*u*(fts+u)); w > 1 {
		runShards(w, u, func(lo, hi int) { l.paramGradRows(n, order, 4*lo, 4*hi) })
	} else {
		l.paramGradRows(n, order, 0, 4*u)
	}
}

// inputGradStep adds timestep t's input gradient dx = dg·Wx for samples
// [lo, hi).
func (l *LSTM) inputGradStep(t, n, lo, hi int) {
	g, fts := 4*l.Units, l.features
	dg := l.bdg[(t*n+lo)*g : (t*n+hi)*g]
	tensor.Gemm(l.bdx[(t*n+lo)*fts:(t*n+hi)*fts], dg, l.wx.Data, hi-lo, fts, g, fts, g)
}

// gradOrder returns the rows of the time-major blocks in the order n
// sequential per-sample backward passes add their parameter gradients:
// sample ascending, timestep descending. It is built once per batch size,
// so a training step allocates nothing.
func (l *LSTM) gradOrder(n int) []int {
	if l.borderN != n || len(l.border) != n*l.steps {
		l.border = pool.GrowInts(l.border, n*l.steps)
		q := 0
		for s := 0; s < n; s++ {
			for t := l.steps - 1; t >= 0; t-- {
				l.border[q] = t*n + s
				q++
			}
		}
		l.borderN = n
	}
	return l.border
}

// paramGradRows accumulates the Wx, Wh and bias gradients of gate rows
// [r0, r1) from the cached gate gradients, taking the rows of the
// time-major blocks in the given order. Row q = t*n+s of bdg holds sample
// s's gate gradients at timestep t, with its input in row q of bxT and its
// previous hidden state in row q of bhs, so each weight gradient is one
// GemmTN over those rows; every element receives its products in the
// order n sequential per-sample backward passes add them.
func (l *LSTM) paramGradRows(n int, order []int, r0, r1 int) {
	g, u, fts := 4*l.Units, l.Units, l.features
	k := n * l.steps
	dg := l.bdg[:k*g]
	tensor.GemmTN(l.wx.Grad, dg, l.bxT[:k*fts], g, fts, k, r0, r1, order)
	tensor.GemmTN(l.wh.Grad, dg, l.bhs[:k*u], g, u, k, r0, r1, order)
	for _, q := range order {
		for r, d := range dg[q*g+r0 : q*g+r1] {
			l.b.Grad[r0+r] += d
		}
	}
}
