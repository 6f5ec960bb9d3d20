package nn

import (
	"fmt"
	"math"

	"specml/internal/rng"
)

// LSTM is a standard long short-term memory layer processing a
// [timesteps, features] sequence and emitting the final hidden state (the
// Keras return_sequences=false behaviour the paper's time-series model
// uses). Gate order in the packed weight matrices is i, f, g, o.
//
// Parameter count is 4*Units*(features+Units+1), which for the paper's
// configuration (32 units, 1700-point spectra, plus the 32->4 dense head)
// totals exactly 221 956 trainable parameters.
type LSTM struct {
	Units int

	steps, features int
	wx              *Param // [4*Units][features]
	wh              *Param // [4*Units][Units]
	b               *Param // [4*Units]

	// caches for backpropagation through time
	xs             []float64   // copy of the input sequence
	hs, cs         [][]float64 // hidden and cell states per step (index 0 = initial zeros)
	gates          [][]float64 // post-activation gate values per step: i,f,g,o packed
	gin            []float64
	dh, dc, dgates []float64

	// grow-only scratch for the batched GEMM path (lstm_batch.go). All
	// time-major blocks index rows as t*n+s so each timestep's batch slab
	// is contiguous for the recurrent GEMM.
	bxT  []float64 // time-major input copy [steps][n][features]
	bz   []float64 // gate block [steps][n][4u]: pre-activations, then post-activation gates
	bhs  []float64 // hidden states [(steps+1)][n][u]
	bcs  []float64 // cell states   [(steps+1)][n][u]
	bdg  []float64 // gate gradients per step [steps][n][4u]
	bdh  []float64 // running dh [n][u]
	bdc  []float64 // running dc [n][u]
	bdx  []float64 // time-major input gradients [steps][n][features]
	bgin []float64 // sample-major input-gradient block [n][steps*features]
	// border lists the rows t*n+s of the time-major blocks in the order
	// n sequential Backward calls add their parameter gradients (sample
	// ascending, timestep descending), for the batch size borderN.
	border  []int
	borderN int
	kernelShards
}

// NewLSTM returns an LSTM layer with the given number of units.
func NewLSTM(units int) *LSTM { return &LSTM{Units: units} }

// Kind implements Layer.
func (l *LSTM) Kind() string { return "lstm" }

// Build implements Layer.
func (l *LSTM) Build(src *rng.Source, inputShape []int) ([]int, error) {
	if l.Units <= 0 {
		return nil, fmt.Errorf("nn: lstm needs positive Units, got %d", l.Units)
	}
	if len(inputShape) != 2 || inputShape[0] <= 0 || inputShape[1] <= 0 {
		return nil, fmt.Errorf("nn: lstm needs a [timesteps, features] input, got %v", inputShape)
	}
	l.steps, l.features = inputShape[0], inputShape[1]
	u := l.Units
	l.wx = newParam("wx", 4*u*l.features)
	l.wh = newParam("wh", 4*u*u)
	l.b = newParam("b", 4*u)
	glorotUniform(src, l.wx.Data, l.features, u)
	// orthogonal-ish init is overkill; glorot on recurrent weights works for
	// the short sequences used here
	glorotUniform(src, l.wh.Data, u, u)
	// forget-gate bias starts at 1 (standard trick for gradient flow)
	for i := u; i < 2*u; i++ {
		l.b.Data[i] = 1
	}

	l.xs = make([]float64, l.steps*l.features)
	l.hs = make([][]float64, l.steps+1)
	l.cs = make([][]float64, l.steps+1)
	for i := 0; i <= l.steps; i++ {
		l.hs[i] = make([]float64, u)
		l.cs[i] = make([]float64, u)
	}
	l.gates = make([][]float64, l.steps)
	for i := range l.gates {
		l.gates[i] = make([]float64, 4*u)
	}
	l.gin = make([]float64, l.steps*l.features)
	l.dh = make([]float64, u)
	l.dc = make([]float64, u)
	l.dgates = make([]float64, 4*u)
	return []int{u}, nil
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Forward implements Layer.
func (l *LSTM) Forward(x []float64) []float64 {
	copy(l.xs, x)
	u := l.Units
	for i := range l.hs[0] {
		l.hs[0][i] = 0
		l.cs[0][i] = 0
	}
	for t := 0; t < l.steps; t++ {
		xt := x[t*l.features : (t+1)*l.features]
		hPrev, cPrev := l.hs[t], l.cs[t]
		g := l.gates[t]
		// pre-activations: z = Wx*xt + Wh*hPrev + b
		for r := 0; r < 4*u; r++ {
			s := l.b.Data[r]
			wxRow := l.wx.Data[r*l.features : (r+1)*l.features]
			for c, v := range xt {
				s += wxRow[c] * v
			}
			whRow := l.wh.Data[r*u : (r+1)*u]
			for c, v := range hPrev {
				s += whRow[c] * v
			}
			g[r] = s
		}
		h, cNew := l.hs[t+1], l.cs[t+1]
		for j := 0; j < u; j++ {
			i := sigmoid(g[j])
			f := sigmoid(g[u+j])
			gg := math.Tanh(g[2*u+j])
			o := sigmoid(g[3*u+j])
			g[j], g[u+j], g[2*u+j], g[3*u+j] = i, f, gg, o
			cNew[j] = f*cPrev[j] + i*gg
			h[j] = o * math.Tanh(cNew[j])
		}
	}
	return l.hs[l.steps]
}

// Backward implements Layer (backpropagation through time). gradOut is the
// gradient with respect to the final hidden state.
func (l *LSTM) Backward(gradOut []float64) []float64 {
	u := l.Units
	copy(l.dh, gradOut)
	for i := range l.dc {
		l.dc[i] = 0
	}
	for i := range l.gin {
		l.gin[i] = 0
	}
	for t := l.steps - 1; t >= 0; t-- {
		g := l.gates[t]
		cPrev := l.cs[t]
		cNew := l.cs[t+1]
		hPrev := l.hs[t]
		xt := l.xs[t*l.features : (t+1)*l.features]
		dg := l.dgates
		for j := 0; j < u; j++ {
			i, f, gg, o := g[j], g[u+j], g[2*u+j], g[3*u+j]
			tc := math.Tanh(cNew[j])
			do := l.dh[j] * tc
			dcTotal := l.dc[j] + l.dh[j]*o*(1-tc*tc)
			di := dcTotal * gg
			df := dcTotal * cPrev[j]
			dgg := dcTotal * i
			// back through gate nonlinearities to pre-activations
			dg[j] = di * i * (1 - i)
			dg[u+j] = df * f * (1 - f)
			dg[2*u+j] = dgg * (1 - gg*gg)
			dg[3*u+j] = do * o * (1 - o)
			// carry cell gradient to t-1
			l.dc[j] = dcTotal * f
		}
		// accumulate parameter gradients and propagate to h_{t-1} and x_t
		ginT := l.gin[t*l.features : (t+1)*l.features]
		for j := range l.dh {
			l.dh[j] = 0
		}
		for r := 0; r < 4*u; r++ {
			d := dg[r]
			if d == 0 {
				continue
			}
			l.b.Grad[r] += d
			wxRow := l.wx.Data[r*l.features : (r+1)*l.features]
			gwxRow := l.wx.Grad[r*l.features : (r+1)*l.features]
			for c, v := range xt {
				gwxRow[c] += d * v
				ginT[c] += d * wxRow[c]
			}
			whRow := l.wh.Data[r*u : (r+1)*u]
			gwhRow := l.wh.Grad[r*u : (r+1)*u]
			for c, v := range hPrev {
				gwhRow[c] += d * v
				l.dh[c] += d * whRow[c]
			}
		}
	}
	return l.gin
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }

// Spec implements Layer.
func (l *LSTM) Spec() LayerSpec { return LayerSpec{Type: "lstm", Units: l.Units} }
