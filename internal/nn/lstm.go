package nn

import (
	"fmt"

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

	// grow-only forward/backward caches (lstm_batch.go). All time-major
	// blocks index rows as t*n+s so each timestep's batch slab is contiguous
	// for the recurrent GEMM.
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
	// n sequential per-sample backward passes add their parameter gradients
	// (sample ascending, timestep descending), for the batch size borderN.
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
	return []int{u}, nil
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.wx, l.wh, l.b} }

// Spec implements Layer.
func (l *LSTM) Spec() LayerSpec { return LayerSpec{Type: "lstm", Units: l.Units} }
