package nn

import (
	"fmt"
	"math"
	"slices"

	"specml/internal/rng"
)

// The per-sample reference of the batched kernels. Layer's contract is that
// ForwardBatch/BackwardBatch over a block are bit-identical to running its
// rows one at a time through the plain loops below, and the bit-identity
// tests compare against them. Each output element keeps one accumulator
// and adds its terms in the order written here. The functions are
// stateless: a forward pass returns its output together with the backward
// pass over its own tape (a closure), and reads nothing of a layer but its
// configuration, its parameters and Dropout's training flag, so they share
// no cache with the kernels they check.

// refBack backpropagates dLoss/dOutput through one reference forward pass:
// it adds the parameter gradients into the layer's Grad buffers and returns
// dLoss/dInput in a fresh slice.
type refBack func(gradOut []float64) []float64

// refForward runs the reference forward pass of l on one sample. mask is the
// sample's mask stream, read only by a Dropout in training mode.
func refForward(l Layer, x []float64, mask *rng.Source) ([]float64, refBack) {
	x = slices.Clone(x) // the tape owns its input
	switch l := l.(type) {
	case *Dense:
		return refDense(l, x)
	case *Conv1D:
		return refConv1D(l, x)
	case *LocallyConnected1D:
		return refLocallyConnected1D(l, x)
	case *ActivationLayer:
		return refActivation(l, x)
	case *SoftmaxLayer:
		return refSoftmax(l, x)
	case *MaxPool1D:
		return refMaxPool1D(l, x)
	case *AvgPool1D:
		return refAvgPool1D(l, x)
	case *Dropout:
		return refDropout(l, x, mask)
	case *Reshape, *Flatten:
		return x, slices.Clone
	case *LSTM:
		return refLSTM(l, x)
	case *TimeDistributed:
		return refTimeDistributed(l, x)
	}
	panic(fmt.Sprintf("nn: no reference for layer %s", l.Kind()))
}

// refModel runs the reference forward pass of every layer of m on one
// sample. Each Dropout in training mode draws its masks from a stream split
// off drop, one per layer in layer order: with drop = rng.New(seed) these
// are the streams reseedDropoutBatch derives from the sample's seed. drop
// may be nil when no dropout layer is training.
func refModel(m *Model, x []float64, drop *rng.Source) ([]float64, refBack) {
	backs := make([]refBack, len(m.layers))
	for i, l := range m.layers {
		var mask *rng.Source
		if _, ok := l.(*Dropout); ok && drop != nil {
			mask = drop.Split()
		}
		x, backs[i] = refForward(l, x, mask)
	}
	return x, func(g []float64) []float64 {
		for i := len(backs) - 1; i >= 0; i-- {
			g = backs[i](g)
		}
		return g
	}
}

// refPredict is the reference of Predict: one inference-mode pass.
func refPredict(m *Model, x []float64) []float64 {
	m.SetTraining(false)
	y, _ := refModel(m, x, nil)
	return y
}

// refEvaluate is the reference of EvaluateLoss and EvaluateMAE: one
// reference pass per sample, the losses and absolute errors summed in
// sample order.
func refEvaluate(m *Model, x, y [][]float64, loss Loss) (meanLoss, meanMAE float64, perOutput []float64) {
	total := 0.0
	perOutput = make([]float64, m.OutputLen())
	for i := range x {
		out := refPredict(m, x[i])
		total += loss.Loss(out, y[i])
		for j, p := range out {
			perOutput[j] += math.Abs(p - y[i][j])
		}
	}
	inv := 1 / float64(len(x))
	sum := 0.0
	for j := range perOutput {
		perOutput[j] *= inv
		sum += perOutput[j]
	}
	return total / float64(len(x)), sum / float64(len(perOutput)), perOutput
}

// refRows runs refForward and its backward pass over the n rows of the
// blocks x and gradOut, returning the output and input-gradient blocks;
// masks[s], when masks is non-nil, is row s's mask stream.
func refRows(l Layer, x, gradOut []float64, n int, masks []*rng.Source) (y, gin []float64) {
	inLen, outLen := len(x)/n, len(gradOut)/n
	for s := 0; s < n; s++ {
		var mask *rng.Source
		if masks != nil {
			mask = masks[s]
		}
		ys, back := refForward(l, x[s*inLen:(s+1)*inLen], mask)
		y = append(y, ys...)
		gin = append(gin, back(gradOut[s*outLen:(s+1)*outLen])...)
	}
	return y, gin
}

func refDense(d *Dense, x []float64) ([]float64, refBack) {
	y := make([]float64, d.Out)
	for r := range y {
		s := 0.0
		for c, w := range d.w.Data[r*d.in : (r+1)*d.in] {
			s += w * x[c]
		}
		y[r] = s + d.b.Data[r]
	}
	return y, func(g []float64) []float64 {
		for r, gr := range g {
			gw := d.w.Grad[r*d.in : (r+1)*d.in]
			for c, v := range x {
				gw[c] += gr * v
			}
			d.b.Grad[r] += gr
		}
		gin := make([]float64, d.in)
		for r, gr := range g {
			for c, w := range d.w.Data[r*d.in : (r+1)*d.in] {
				gin[c] += w * gr
			}
		}
		return gin
	}
}

func refConv1D(c *Conv1D, x []float64) ([]float64, refBack) {
	fanIn := c.Kernel * c.inCh
	y := make([]float64, c.outLen*c.Filters)
	for p := 0; p < c.outLen; p++ {
		win := x[p*c.Stride*c.inCh:][:fanIn]
		for f := 0; f < c.Filters; f++ {
			s := c.b.Data[f]
			for i, w := range c.w.Data[f*fanIn : (f+1)*fanIn] {
				s += w * win[i]
			}
			y[p*c.Filters+f] = s
		}
	}
	return y, func(g []float64) []float64 {
		gin := make([]float64, len(x))
		for p := 0; p < c.outLen; p++ {
			base := p * c.Stride * c.inCh
			win, ginWin := x[base:base+fanIn], gin[base:base+fanIn]
			for f, gf := range g[p*c.Filters : (p+1)*c.Filters] {
				c.b.Grad[f] += gf
				wf := c.w.Data[f*fanIn : (f+1)*fanIn]
				gwf := c.w.Grad[f*fanIn : (f+1)*fanIn]
				for i, v := range win {
					gwf[i] += gf * v
					ginWin[i] += gf * wf[i]
				}
			}
		}
		return gin
	}
}

func refLocallyConnected1D(c *LocallyConnected1D, x []float64) ([]float64, refBack) {
	fanIn := c.Kernel * c.inCh
	y := make([]float64, c.outLen*c.Filters)
	for p := 0; p < c.outLen; p++ {
		win := x[p*c.Stride*c.inCh:][:fanIn]
		for f := 0; f < c.Filters; f++ {
			q := p*c.Filters + f
			s := c.b.Data[q]
			for i, w := range c.w.Data[q*fanIn : (q+1)*fanIn] {
				s += w * win[i]
			}
			y[q] = s
		}
	}
	return y, func(g []float64) []float64 {
		gin := make([]float64, len(x))
		for p := 0; p < c.outLen; p++ {
			base := p * c.Stride * c.inCh
			win, ginWin := x[base:base+fanIn], gin[base:base+fanIn]
			for f := 0; f < c.Filters; f++ {
				q := p*c.Filters + f
				gf := g[q]
				c.b.Grad[q] += gf
				wf := c.w.Data[q*fanIn : (q+1)*fanIn]
				gwf := c.w.Grad[q*fanIn : (q+1)*fanIn]
				for i, v := range win {
					gwf[i] += gf * v
					ginWin[i] += gf * wf[i]
				}
			}
		}
		return gin
	}
}

func refActivation(l *ActivationLayer, x []float64) ([]float64, refBack) {
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = l.Act.Value(v)
	}
	return y, func(g []float64) []float64 {
		gin := make([]float64, len(g))
		for i, gv := range g {
			gin[i] = gv * l.Act.Deriv(x[i], y[i])
		}
		return gin
	}
}

func refSoftmax(l *SoftmaxLayer, x []float64) ([]float64, refBack) {
	y := make([]float64, len(x))
	for lo := 0; lo < len(x); lo += l.width {
		Softmax(y[lo:lo+l.width], x[lo:lo+l.width])
	}
	return y, func(g []float64) []float64 {
		// per group: dL/dx_i = y_i * (g_i - Σ_j g_j y_j)
		gin := make([]float64, len(g))
		for lo := 0; lo < len(g); lo += l.width {
			dot := 0.0
			for i := lo; i < lo+l.width; i++ {
				dot += g[i] * y[i]
			}
			for i := lo; i < lo+l.width; i++ {
				gin[i] = y[i] * (g[i] - dot)
			}
		}
		return gin
	}
}

func refMaxPool1D(l *MaxPool1D, x []float64) ([]float64, refBack) {
	y := make([]float64, l.outLen*l.ch)
	argmax := make([]int, len(y))
	for p := 0; p < l.outLen; p++ {
		for c := 0; c < l.ch; c++ {
			best := (p*l.Stride)*l.ch + c
			for k := 1; k < l.Kernel; k++ {
				if idx := (p*l.Stride+k)*l.ch + c; x[idx] > x[best] {
					best = idx
				}
			}
			y[p*l.ch+c], argmax[p*l.ch+c] = x[best], best
		}
	}
	return y, func(g []float64) []float64 {
		gin := make([]float64, len(x))
		for i, gv := range g {
			gin[argmax[i]] += gv
		}
		return gin
	}
}

func refAvgPool1D(l *AvgPool1D, x []float64) ([]float64, refBack) {
	inv := 1 / float64(l.Kernel)
	y := make([]float64, l.outLen*l.ch)
	for p := 0; p < l.outLen; p++ {
		for c := 0; c < l.ch; c++ {
			s := 0.0
			for k := 0; k < l.Kernel; k++ {
				s += x[(p*l.Stride+k)*l.ch+c]
			}
			y[p*l.ch+c] = s * inv
		}
	}
	return y, func(g []float64) []float64 {
		gin := make([]float64, len(x))
		for p := 0; p < l.outLen; p++ {
			for c := 0; c < l.ch; c++ {
				gv := g[p*l.ch+c] * inv
				for k := 0; k < l.Kernel; k++ {
					gin[(p*l.Stride+k)*l.ch+c] += gv
				}
			}
		}
		return gin
	}
}

// refDropout is the identity outside training; in training it draws one
// keep decision per element, in element order, from mask.
func refDropout(l *Dropout, x []float64, mask *rng.Source) ([]float64, refBack) {
	if !l.training || l.Rate == 0 {
		return x, slices.Clone
	}
	keep := 1 - l.Rate
	inv := 1 / keep
	m := make([]float64, len(x))
	y := make([]float64, len(x))
	for i, v := range x {
		if mask.Float64() < keep {
			m[i] = inv
		}
		y[i] = v * m[i]
	}
	return y, func(g []float64) []float64 {
		gin := make([]float64, len(g))
		for i, gv := range g {
			gin[i] = gv * m[i]
		}
		return gin
	}
}

// refLSTM runs the recurrence one timestep at a time; its backward pass is
// backpropagation through time.
func refLSTM(l *LSTM, x []float64) ([]float64, refBack) {
	u, fts := l.Units, l.features
	sigmoid := func(v float64) float64 { return 1 / (1 + math.Exp(-v)) }
	// hs[t], cs[t]: hidden and cell state before timestep t (index 0 = zeros);
	// gates[t]: post-activation gates i, f, g, o packed.
	hs := make([][]float64, l.steps+1)
	cs := make([][]float64, l.steps+1)
	gates := make([][]float64, l.steps)
	hs[0], cs[0] = make([]float64, u), make([]float64, u)
	for t := 0; t < l.steps; t++ {
		xt := x[t*fts : (t+1)*fts]
		g := make([]float64, 4*u)
		// pre-activations: z = b + Wx·xt + Wh·hPrev
		for r := range g {
			s := l.b.Data[r]
			for c, w := range l.wx.Data[r*fts : (r+1)*fts] {
				s += w * xt[c]
			}
			for c, w := range l.wh.Data[r*u : (r+1)*u] {
				s += w * hs[t][c]
			}
			g[r] = s
		}
		h, cNew := make([]float64, u), make([]float64, u)
		for j := 0; j < u; j++ {
			i, f := sigmoid(g[j]), sigmoid(g[u+j])
			gg, o := math.Tanh(g[2*u+j]), sigmoid(g[3*u+j])
			g[j], g[u+j], g[2*u+j], g[3*u+j] = i, f, gg, o
			cNew[j] = f*cs[t][j] + i*gg
			h[j] = o * math.Tanh(cNew[j])
		}
		hs[t+1], cs[t+1], gates[t] = h, cNew, g
	}
	return slices.Clone(hs[l.steps]), func(gradOut []float64) []float64 {
		gin := make([]float64, len(x))
		dh := slices.Clone(gradOut)
		dc := make([]float64, u)
		dg := make([]float64, 4*u)
		for t := l.steps - 1; t >= 0; t-- {
			g := gates[t]
			for j := 0; j < u; j++ {
				i, f, gg, o := g[j], g[u+j], g[2*u+j], g[3*u+j]
				tc := math.Tanh(cs[t+1][j])
				do := dh[j] * tc
				dcTotal := dc[j] + dh[j]*o*(1-tc*tc)
				// back through the gate nonlinearities to the pre-activations
				dg[j] = dcTotal * gg * i * (1 - i)
				dg[u+j] = dcTotal * cs[t][j] * f * (1 - f)
				dg[2*u+j] = dcTotal * i * (1 - gg*gg)
				dg[3*u+j] = do * o * (1 - o)
				dc[j] = dcTotal * f // carried to t-1
			}
			// parameter gradients, and the gradients of h_{t-1} and x_t
			xt := x[t*fts : (t+1)*fts]
			ginT := gin[t*fts : (t+1)*fts]
			clear(dh)
			for r, d := range dg {
				l.b.Grad[r] += d
				wx, gwx := l.wx.Data[r*fts:(r+1)*fts], l.wx.Grad[r*fts:(r+1)*fts]
				for c, v := range xt {
					gwx[c] += d * v
					ginT[c] += d * wx[c]
				}
				wh, gwh := l.wh.Data[r*u:(r+1)*u], l.wh.Grad[r*u:(r+1)*u]
				for c, v := range hs[t] {
					gwh[c] += d * v
					dh[c] += d * wh[c]
				}
			}
		}
		return gin
	}
}

// refTimeDistributed runs the inner reference once per timestep; the
// backward pass walks the timesteps ascending, so the shared parameters'
// gradients accumulate in that order.
func refTimeDistributed(l *TimeDistributed, x []float64) ([]float64, refBack) {
	fts := len(x) / l.steps
	var y []float64
	backs := make([]refBack, l.steps)
	for t := range backs {
		var yt []float64
		yt, backs[t] = refForward(l.Inner, x[t*fts:(t+1)*fts], nil)
		y = append(y, yt...)
	}
	outT := len(y) / l.steps
	return y, func(g []float64) []float64 {
		var gin []float64
		for t, back := range backs {
			gin = append(gin, back(g[t*outT:(t+1)*outT])...)
		}
		return gin
	}
}
