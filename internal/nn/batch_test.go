package nn

import (
	"math"
	"slices"
	"testing"

	"specml/internal/rng"
)

// batchSizes are the block widths every layer's batched kernels are checked
// at: a single row, an odd remainder-style batch, and the default training
// batch size.
var batchSizes = []int{1, 7, 32}

type batchCase struct {
	name  string
	shape []int // layer input shape
	mk    func() Layer
	train bool // run Dropout in training mode with seeded per-sample streams
	// infInput sets the first input element to +Inf and the output
	// gradient it meets to zero: 0·Inf = NaN must reach the weight
	// gradient on both paths.
	infInput bool
}

var batchCases = []batchCase{
	{name: "dense", shape: []int{23}, mk: func() Layer { return NewDense(11) }},
	{name: "conv1d-overlap", shape: []int{40, 2}, mk: func() Layer { return NewConv1D(5, 5, 2) }},
	{name: "conv1d-nonoverlap", shape: []int{27, 3}, mk: func() Layer { return NewConv1D(4, 3, 3) }},
	{name: "locallyconnected1d", shape: []int{30, 2}, mk: func() Layer { return NewLocallyConnected1D(3, 4, 2) }},
	{name: "activation-relu", shape: []int{17}, mk: func() Layer { return NewActivation(ReLU) }},
	{name: "activation-selu", shape: []int{17}, mk: func() Layer { return NewActivation(SELU) }},
	{name: "softmax-vector", shape: []int{9}, mk: func() Layer { return NewSoftmax() }},
	{name: "softmax-sequence", shape: []int{6, 4}, mk: func() Layer { return NewSoftmax() }},
	{name: "maxpool1d", shape: []int{21, 3}, mk: func() Layer { return NewMaxPool1D(3, 2) }},
	{name: "avgpool1d", shape: []int{20, 2}, mk: func() Layer { return NewAvgPool1D(4, 0) }},
	{name: "dropout-training", shape: []int{15}, mk: func() Layer { return NewDropout(0.4) }, train: true},
	{name: "dropout-inference", shape: []int{15}, mk: func() Layer { return NewDropout(0.4) }},
	{name: "reshape", shape: []int{12}, mk: func() Layer { return NewReshape(4, 3) }},
	{name: "flatten", shape: []int{4, 3}, mk: func() Layer { return NewFlatten() }},
	{name: "lstm", shape: []int{5, 3}, mk: func() Layer { return NewLSTM(6) }},
	{name: "timedistributed-dense", shape: []int{4, 6}, mk: func() Layer { return NewTimeDistributed(NewDense(3)) }},
	{name: "timedistributed-lc1d", shape: []int{4, 10}, mk: func() Layer { return NewTimeDistributed(NewLocallyConnected1D(2, 3, 2), 10, 1) }},
	{name: "dense-inf", shape: []int{23}, mk: func() Layer { return NewDense(11) }, infInput: true},
	{name: "conv1d-overlap-inf", shape: []int{40, 2}, mk: func() Layer { return NewConv1D(5, 5, 2) }, infInput: true},
	{name: "locallyconnected1d-inf", shape: []int{30, 2}, mk: func() Layer { return NewLocallyConnected1D(3, 4, 2) }, infInput: true},
	// The LSTM's gates saturate at the +Inf input, so their gradients
	// there are zero whatever the output gradient.
	{name: "lstm-inf", shape: []int{5, 3}, mk: func() Layer { return NewLSTM(6) }, infInput: true},
}

// fillBatch fills s with values in (-1.5, 1.5), forcing ~20% exact zeros,
// the sparsity of ReLU gradients.
func fillBatch(src *rng.Source, s []float64) {
	for i := range s {
		if src.Float64() < 0.2 {
			s[i] = 0
		} else {
			s[i] = src.Uniform(-1.5, 1.5)
		}
	}
}

// randomizeBiases fills every bias parameter with fillBatch values drawn
// from seed. Build leaves most biases at zero, where a kernel that adds the
// bias at the wrong point of an accumulation would still agree with the
// reference.
func randomizeBiases(ps []*Param, seed uint64) {
	src := rng.New(seed)
	for _, p := range ps {
		if p.Name == "b" {
			fillBatch(src, p.Data)
		}
	}
}

// expectBits fails t unless got and want agree bit for bit; anyNaN counts
// any two NaNs as equal.
func expectBits(t *testing.T, name string, got, want []float64, anyNaN bool) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		if anyNaN && math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d differs bitwise: %v vs %v", name, i, got[i], want[i])
		}
	}
}

// TestBatchLayerEquivalence pins the batched contract of Layer: for every
// layer, ForwardBatch/BackwardBatch over a block is bit-identical —
// outputs, input gradients, and accumulated parameter gradients — to the
// per-sample reference over the rows, a non-finite input included.
func TestBatchLayerEquivalence(t *testing.T) {
	for _, tc := range batchCases {
		for _, n := range batchSizes {
			t.Run(tc.name, func(t *testing.T) {
				const buildSeed = 7
				build := func() Layer {
					l := tc.mk()
					if _, err := l.Build(rng.New(buildSeed), tc.shape); err != nil {
						t.Fatalf("build: %v", err)
					}
					randomizeBiases(l.Params(), buildSeed)
					return l
				}
				batch := build()
				ref := build()

				inLen := shapeLen(tc.shape)
				// infer the output length from one reference forward
				probe, _ := refForward(ref, make([]float64, inLen), nil)
				outLen := len(probe)

				src := rng.New(uint64(1000 + n))
				xb := make([]float64, n*inLen)
				gb := make([]float64, n*outLen)
				fillBatch(src, xb)
				fillBatch(src, gb)
				if tc.infInput {
					xb[0], gb[0] = math.Inf(1), 0
				}

				var masks []*rng.Source
				if d, ok := batch.(*Dropout); ok && tc.train {
					d.SetTraining(true)
					ref.(*Dropout).SetTraining(true)
					srcs := make([]*rng.Source, n)
					for s := range srcs {
						srcs[s] = rng.New(uint64(500 + s)).Split()
						masks = append(masks, rng.New(uint64(500+s)).Split())
					}
					d.setBatchSources(srcs)
				}

				yb := batch.ForwardBatch(xb, n)
				ginb := batch.BackwardBatch(gb, n)
				refY, refGin := refRows(ref, xb, gb, n, masks)

				expectBits(t, "forward n="+itoa(n), yb, refY, tc.infInput)
				expectBits(t, "backward n="+itoa(n), ginb, refGin, tc.infInput)
				bp, rp := batch.Params(), ref.Params()
				for i := range bp {
					expectBits(t, bp[i].Name+" grad n="+itoa(n), bp[i].Grad, rp[i].Grad, tc.infInput)
				}
				if tc.infInput && !slices.ContainsFunc(bp[0].Grad, math.IsNaN) {
					t.Fatalf("%s grad n=%d: no NaN from a zero gradient times +Inf", bp[0].Name, n)
				}
			})
		}
	}
}

// backwardAll runs every layer's BackwardBatch, top to bottom, and returns
// the whole stack's input gradient. Training stops at the lowest layer with
// parameters (backwardBatch); this helper keeps the input-gradient kernels
// of that layer and of the layers below it under test.
func backwardAll(m *Model, gradOut []float64, n int) []float64 {
	g := gradOut
	for i := len(m.layers) - 1; i >= 0; i-- {
		g = m.layers[i].BackwardBatch(g, n)
	}
	return g
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestForwardBatchMatchesModelForward runs a whole Table-1-style conv stack
// through forwardBatch and checks bit-identity against the per-sample
// reference.
func TestForwardBatchMatchesModelForward(t *testing.T) {
	m := NewModel().
		Add(NewReshape(50, 1)).
		Add(NewConv1D(6, 5, 2)).
		Add(NewActivation(ReLU)).
		Add(NewMaxPool1D(2, 0)).
		Add(NewConv1D(4, 3, 1)).
		Add(NewActivation(SELU)).
		Add(NewFlatten()).
		Add(NewDense(8)).
		Add(NewSoftmax())
	if err := m.Build(rng.New(3), 50); err != nil {
		t.Fatal(err)
	}
	randomizeBiases(m.Params(), 3)
	const n = 13
	inLen, outLen := m.InputLen(), m.OutputLen()
	src := rng.New(42)
	xb := make([]float64, n*inLen)
	fillBatch(src, xb)

	yb := m.forwardBatch(xb, n)
	for s := 0; s < n; s++ {
		want, _ := refModel(m, xb[s*inLen:(s+1)*inLen], nil)
		expectBits(t, "sample "+itoa(s), yb[s*outLen:(s+1)*outLen], want, false)
	}
}

// TestConvTable1InputGradient pins Conv1D's input gradient to the
// per-sample reference bit for bit at the Table-1 conv shapes whose
// windows overlap (conv 3, 5 and 7, stride below kernel), where each
// position adds one Gemm over the samples' windows, and at one conv with
// stride >= kernel, which keeps the GEMM + Col2Im path. Sample counts of
// 1, 3, 5 and 33 leave row-group tails, and each runs serially and over
// two kernel shards.
func TestConvTable1InputGradient(t *testing.T) {
	for _, tc := range []struct {
		name                    string
		filters, kernel, stride int
		shape                   []int
	}{
		{"conv3", 25, 20, 3, []int{180, 25}},
		{"conv5", 25, 15, 2, []int{54, 25}},
		{"conv7", 15, 15, 4, []int{20, 25}},
		{"nonoverlap", 25, 4, 4, []int{40, 25}},
	} {
		for _, n := range []int{1, 3, 5, 33} {
			for _, workers := range []int{1, 2} {
				build := func() *Conv1D {
					c := NewConv1D(tc.filters, tc.kernel, tc.stride)
					if _, err := c.Build(rng.New(11), tc.shape); err != nil {
						t.Fatalf("build: %v", err)
					}
					randomizeBiases(c.Params(), 11)
					return c
				}
				c, ref := build(), build()
				c.setKernelWorkers(workers)
				inLen, outLen := shapeLen(tc.shape), c.outLen*c.Filters
				src := rng.New(uint64(100*n + workers))
				x, g := make([]float64, n*inLen), make([]float64, n*outLen)
				fillBatch(src, x)
				fillBatch(src, g)
				c.ForwardBatch(x, n)
				gin := c.BackwardBatch(g, n)
				_, want := refRows(ref, x, g, n, nil)
				name := tc.name + " n=" + itoa(n) + " workers=" + itoa(workers)
				expectBits(t, name+" input gradient", gin, want, false)
				for i, p := range c.Params() {
					expectBits(t, name+" "+p.Name+" grad", p.Grad, ref.Params()[i].Grad, false)
				}
			}
		}
	}
}

// TestBatchedConvGradcheck verifies the batched conv forward/backward path
// over a three-row block against central finite differences.
func TestBatchedConvGradcheck(t *testing.T) {
	m := buildModel(t, 5, []int{20},
		NewReshape(20, 1), NewConv1D(3, 5, 2), NewActivation(Tanh), NewFlatten(), NewDense(4))
	if r := numericalGradCheck(t, m, MSE, 6, 3); r > gradTol {
		t.Fatalf("batched conv gradcheck max relative error %.3e", r)
	}
}

// TestReseedDropoutBatchMatchesPerSample checks that a multi-dropout model
// produces bit-identical training-mode outputs through the batched path and
// the per-sample reference for the same seed sequence.
func TestReseedDropoutBatchMatchesPerSample(t *testing.T) {
	build := func() *Model {
		m := NewModel().
			Add(NewDense(16)).
			Add(NewActivation(ReLU)).
			Add(NewDropout(0.3)).
			Add(NewDense(10)).
			Add(NewDropout(0.5)).
			Add(NewDense(4))
		if err := m.Build(rng.New(21), 12); err != nil {
			t.Fatal(err)
		}
		return m
	}
	batch := build()
	ref := build()
	const n = 7
	inLen, outLen := batch.InputLen(), batch.OutputLen()
	src := rng.New(77)
	xb := make([]float64, n*inLen)
	fillBatch(src, xb)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(9000 + i)
	}

	batch.SetTraining(true)
	batch.reseedDropoutBatch(seeds)
	yb := batch.forwardBatch(xb, n)

	ref.SetTraining(true)
	for s := 0; s < n; s++ {
		want, _ := refModel(ref, xb[s*inLen:(s+1)*inLen], rng.New(seeds[s]))
		expectBits(t, "sample "+itoa(s), yb[s*outLen:(s+1)*outLen], want, false)
	}
}

// TestPredictBatchLSTMBatched pins the batched recurrent engine's serving
// contract: the batched kernels stay bitwise identical to the per-sample
// reference for any worker count.
func TestPredictBatchLSTMBatched(t *testing.T) {
	m := NewModel().
		Add(NewReshape(6, 4)).
		Add(NewLSTM(8)).
		Add(NewDense(3))
	if err := m.Build(rng.New(9), 24); err != nil {
		t.Fatal(err)
	}
	src := rng.New(10)
	rows := make([][]float64, 11)
	for i := range rows {
		rows[i] = make([]float64, 24)
		fillBatch(src, rows[i])
	}
	want := make([][]float64, len(rows))
	for i, r := range rows {
		want[i] = refPredict(m, r)
	}
	for _, workers := range []int{1, 3} {
		got, err := m.PredictBatch(rows, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			expectBits(t, "row "+itoa(i), got[i], want[i], false)
		}
	}
}

// TestInferenceModeUnchangedAndTrainable pins inference mode: Predict
// results equal the reference, and a model that has been through Predict
// (inference on, then off) still gradchecks — the flag must not leak into
// training passes.
func TestInferenceModeUnchangedAndTrainable(t *testing.T) {
	build := func() *Model {
		m := NewModel().
			Add(NewReshape(20, 1)).
			Add(NewConv1D(3, 4, 2)).
			Add(NewActivation(ReLU)).
			Add(NewFlatten()).
			Add(NewDropout(0.2)).
			Add(NewDense(5))
		if err := m.Build(rng.New(33), 20); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := build()
	ref := build()
	src := rng.New(34)
	x := make([]float64, 20)
	fillBatch(src, x)

	expectBits(t, "predict", m.Predict(x), refPredict(ref, x), false)

	// Train a little, predict in between, then gradcheck: BackwardBatch must
	// see the derivatives even though Predict ran with the flag on.
	xs := [][]float64{x}
	ys := [][]float64{{0.1, 0.2, 0.3, 0.2, 0.2}}
	if _, err := m.Fit(xs, ys, FitConfig{Epochs: 2, BatchSize: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	m.Predict(x)
	if maxRel := numericalGradCheck(t, m, MSE, 35, 1); maxRel > 2e-4 {
		t.Fatalf("gradcheck after Fit+Predict: max relative error %.3e", maxRel)
	}
}

// TestFirstTrainableLayerSkipsInputGradient pins backwardBatch's stop at
// the lowest layer with parameters, for every kind of parameter layer: its
// parameter gradients equal those of a full backward pass bit for bit, and
// neither a batched step nor a FitSource run allocates the buffers of the
// input gradient it skips.
func TestFirstTrainableLayerSkipsInputGradient(t *testing.T) {
	cases := []struct {
		name string
		mk   func() *Model
		// inputGrad returns the first trainable layer's input-gradient buffers.
		inputGrad func(m *Model) [][]float64
	}{
		{"conv1d", func() *Model {
			return NewModel().Add(NewReshape(24, 1)).Add(NewConv1D(3, 4, 4)).Add(NewActivation(SELU)).Add(NewFlatten()).Add(NewDense(2))
		}, func(m *Model) [][]float64 { c := m.layers[1].(*Conv1D); return [][]float64{c.bgin, c.bdcol} }},
		{"dense", func() *Model {
			return NewModel().Add(NewDense(5)).Add(NewActivation(Tanh)).Add(NewDense(2))
		}, func(m *Model) [][]float64 { return [][]float64{m.layers[0].(*Dense).bgin} }},
		{"locallyconnected1d", func() *Model {
			return NewModel().Add(NewReshape(24, 1)).Add(NewLocallyConnected1D(2, 4, 2)).Add(NewFlatten()).Add(NewDense(2))
		}, func(m *Model) [][]float64 { return [][]float64{m.layers[1].(*LocallyConnected1D).bgin} }},
		{"lstm", func() *Model {
			return NewModel().Add(NewReshape(4, 6)).Add(NewLSTM(5)).Add(NewDense(2))
		}, func(m *Model) [][]float64 { l := m.layers[1].(*LSTM); return [][]float64{l.bdx, l.bgin} }},
		{"timedistributed-dense", func() *Model {
			return NewModel().Add(NewReshape(4, 6)).Add(NewTimeDistributed(NewDense(3))).Add(NewFlatten()).Add(NewDense(2))
		}, func(m *Model) [][]float64 {
			return [][]float64{m.layers[1].(*TimeDistributed).Inner.(*Dense).bgin}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Model {
				m := tc.mk()
				if err := m.Build(rng.New(61), 24); err != nil {
					t.Fatal(err)
				}
				return m
			}
			noInputGrad := func(m *Model, when string) {
				t.Helper()
				for i, b := range tc.inputGrad(m) {
					if b != nil {
						t.Errorf("%s: input-gradient buffer %d of the first trainable layer allocated (len %d)", when, i, len(b))
					}
				}
			}
			const n = 5
			src := rng.New(62)
			x := make([]float64, n*24)
			g := make([]float64, n*2)
			fillBatch(src, x)
			fillBatch(src, g)

			skip, full := build(), build()
			skip.forwardBatch(x, n)
			skip.backwardBatch(g, n)
			full.forwardBatch(x, n)
			backwardAll(full, g, n)
			sp, fp := skip.Params(), full.Params()
			for i := range sp {
				expectBits(t, sp[i].Name+" grad", sp[i].Grad, fp[i].Grad, false)
			}
			noInputGrad(skip, "batched step")

			fit := build()
			xs, ys := make([][]float64, n), make([][]float64, n)
			for i := range xs {
				xs[i], ys[i] = x[i*24:(i+1)*24], g[i*2:(i+1)*2]
			}
			if _, err := fit.Fit(xs, ys, FitConfig{Epochs: 2, BatchSize: 2, Seed: 3, Workers: 2}); err != nil {
				t.Fatal(err)
			}
			noInputGrad(fit, "FitSource")
		})
	}
}

// TestBuildRejectsParamLayerWithoutParamGrad pins Model.Build's check that
// backwardBatch can stop at the lowest layer with parameters.
func TestBuildRejectsParamLayerWithoutParamGrad(t *testing.T) {
	m := NewModel().Add(&foreignParamLayer{}).Add(NewDense(2))
	if err := m.Build(rng.New(1), 4); err == nil {
		t.Fatal("Build accepted a parameter layer without a parameter-gradient kernel")
	}
}

// foreignParamLayer is an identity layer with a parameter, implemented
// outside the layer set this package ships.
type foreignParamLayer struct{ Reshape }

func (l *foreignParamLayer) Build(_ *rng.Source, in []int) ([]int, error) { return in, nil }
func (l *foreignParamLayer) Params() []*Param                             { return []*Param{newParam("p", 1)} }
