package nn

import (
	"bytes"
	"math"
	"testing"

	"specml/internal/rng"
)

func TestGradTimeDistributedDense(t *testing.T) {
	m := buildModel(t, 31, []int{4, 6},
		NewTimeDistributed(NewDense(3)), NewLSTM(4), NewDense(2))
	if r := numericalGradCheck(t, m, MSE, 32, 1); r > gradTol {
		t.Fatalf("timedistributed gradient error %v", r)
	}
}

func TestGradTimeDistributedConv(t *testing.T) {
	// the paper's proposed hybrid: locally connected feature selector per
	// timestep feeding an LSTM
	m := buildModel(t, 33, []int{3, 18},
		NewTimeDistributed(NewLocallyConnected1D(2, 3, 3), 18, 1),
		NewLSTM(4), NewDense(2))
	if r := numericalGradCheck(t, m, MSE, 34, 1); r > gradTol {
		t.Fatalf("hybrid gradient error %v", r)
	}
}

func TestTimeDistributedSharesWeights(t *testing.T) {
	m := buildModel(t, 35, []int{5, 4}, NewTimeDistributed(NewDense(2)))
	// exactly one weight matrix and one bias, regardless of 5 timesteps
	ps := m.Params()
	if len(ps) != 2 {
		t.Fatalf("%d parameter tensors, want 2 (shared)", len(ps))
	}
	if m.NumParams() != 4*2+2 {
		t.Fatalf("params = %d, want 10", m.NumParams())
	}
	// identical timestep inputs yield identical timestep outputs
	x := make([]float64, 20)
	for t2 := 0; t2 < 5; t2++ {
		copy(x[t2*4:(t2+1)*4], []float64{1, -2, 0.5, 3})
	}
	out := m.Predict(x)
	for t2 := 1; t2 < 5; t2++ {
		for j := 0; j < 2; j++ {
			if out[t2*2+j] != out[j] {
				t.Fatal("shared weights must give identical per-step outputs")
			}
		}
	}
}

func TestTimeDistributedBuildErrors(t *testing.T) {
	if _, err := NewTimeDistributed(nil).Build(rng.New(1), []int{3, 4}); err == nil {
		t.Fatal("nil inner must error")
	}
	if _, err := NewTimeDistributed(NewDense(2)).Build(rng.New(1), []int{7}); err == nil {
		t.Fatal("vector input must error")
	}
	if _, err := NewTimeDistributed(NewDense(2), 5, 2).Build(rng.New(1), []int{3, 4}); err == nil {
		t.Fatal("incompatible inner shape must error")
	}
}

func TestTimeDistributedSaveLoad(t *testing.T) {
	m := buildModel(t, 37, []int{3, 9},
		NewTimeDistributed(NewLocallyConnected1D(2, 3, 3), 9, 1),
		NewFlatten(), NewDense(2))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 27)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	a, b := m.Predict(x), m2.Predict(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("timedistributed round trip mismatch")
		}
	}
}

func TestTimeDistributedSpecWithoutInnerFails(t *testing.T) {
	if _, err := FromSpecs([]LayerSpec{{Type: "timedistributed"}}); err == nil {
		t.Fatal("spec without inner must error")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := newParam("w", 3)
	p.Grad[0], p.Grad[1], p.Grad[2] = 3, 4, 0 // norm 5
	clipGradNorm([]*Param{p}, 2.5)
	if math.Abs(p.Grad[0]-1.5) > 1e-12 || math.Abs(p.Grad[1]-2) > 1e-12 {
		t.Fatalf("clip wrong: %v", p.Grad)
	}
	// under the limit: untouched
	clipGradNorm([]*Param{p}, 10)
	if math.Abs(p.Grad[0]-1.5) > 1e-12 {
		t.Fatal("clip must not rescale small gradients")
	}
	// zero gradient: no NaN
	z := newParam("z", 2)
	clipGradNorm([]*Param{z}, 1)
	if z.Grad[0] != 0 {
		t.Fatal("zero grad changed")
	}
}

func TestFitWithClipAndSchedule(t *testing.T) {
	src := rng.New(41)
	var xs, ys [][]float64
	for i := 0; i < 80; i++ {
		x := src.Normal(0, 1)
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{2 * x})
	}
	m := buildModel(t, 7, []int{1}, NewDense(1))
	opt := NewAdam(0.05)
	var seenLRs []float64
	hist, err := m.Fit(xs, ys, FitConfig{
		Epochs: 25, BatchSize: 16, Loss: MSE, Optimizer: opt, Seed: 1,
		ClipNorm: 1.0,
		LRSchedule: func(epoch int) float64 {
			lr := 0.05 * math.Pow(0.95, float64(epoch))
			seenLRs = append(seenLRs, lr)
			return lr
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seenLRs) != 25 || seenLRs[24] >= seenLRs[0] {
		t.Fatalf("schedule not applied: %v", seenLRs)
	}
	if final := hist.TrainLoss[len(hist.TrainLoss)-1]; final > 0.05 {
		t.Fatalf("training with clip+schedule failed: %v", final)
	}
}

func TestFitScheduleRequiresSettableOptimizer(t *testing.T) {
	m := buildModel(t, 7, []int{1}, NewDense(1))
	type fixedOpt struct{ Optimizer }
	base, _ := OptimizerByName("sgd", 0.1)
	_, err := m.Fit([][]float64{{1}}, [][]float64{{1}}, FitConfig{
		Optimizer:  fixedOpt{base},
		LRSchedule: func(int) float64 { return 0.1 },
	})
	if err == nil {
		t.Fatal("wrapped optimizer without SetLR must be rejected")
	}
}

func TestPredictWithUncertainty(t *testing.T) {
	m := buildModel(t, 43, []int{8},
		NewDense(16), NewActivation(Tanh), NewDropout(0.4), NewDense(2))
	x := []float64{1, -1, 0.5, 2, 0, 1, -0.5, 0.25}
	mean, std, err := m.PredictWithUncertainty(x, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(mean) != 2 || len(std) != 2 {
		t.Fatalf("shapes wrong: %v %v", mean, std)
	}
	// dropout creates genuine spread
	if std[0] == 0 && std[1] == 0 {
		t.Fatal("MC dropout produced zero uncertainty")
	}
	// each call draws fresh masks
	if again, _, _ := m.PredictWithUncertainty(x, 50); again[0] == mean[0] && again[1] == mean[1] {
		t.Fatal("repeated calls drew the same masks")
	}
	// inference mode restored afterwards: deterministic predictions
	a, b := m.Predict(x), m.Predict(x)
	if a[0] != b[0] {
		t.Fatal("training mode leaked out of PredictWithUncertainty")
	}
	if _, _, err := m.PredictWithUncertainty(x, 1); err == nil {
		t.Fatal("n < 2 must error")
	}
}

func TestPredictWithUncertaintyNoDropoutIsDeterministic(t *testing.T) {
	m := buildModel(t, 44, []int{3}, NewDense(2))
	mean, std, err := m.PredictWithUncertainty([]float64{1, 2, 3}, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Predict([]float64{1, 2, 3})
	for j := range mean {
		if math.Abs(mean[j]-p[j]) > 1e-12 || std[j] > 1e-12 {
			t.Fatal("deterministic model must have zero MC spread")
		}
	}
}

// TestPredictWithUncertaintyChunked pins that forwarding the Monte-Carlo
// copies in evalChunk-row blocks gives the one-block result bit for bit and
// leaves the layer caches at most evalChunk rows wide.
func TestPredictWithUncertaintyChunked(t *testing.T) {
	const n = 70
	stack := func() *Model {
		return buildModel(t, 46, []int{8},
			NewDense(16), NewActivation(Tanh), NewDropout(0.4), NewDense(2))
	}
	x := []float64{1, -1, 0.5, 2, 0, 1, -0.5, 0.25}
	m := stack()
	mean, std, err := m.PredictWithUncertainty(x, n)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.layers[0].(*Dense); cap(d.by) > evalChunk*d.Out {
		t.Fatalf("dense cache holds %d rows after %d MC passes, want at most %d", cap(d.by)/d.Out, n, evalChunk)
	}
	ref := stack()
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = ref.layers[2].(*Dropout).src.Uint64()
	}
	xb := make([]float64, 0, n*len(x))
	for i := 0; i < n; i++ {
		xb = append(xb, x...)
	}
	ref.reseedDropoutBatch(seeds)
	ref.SetTraining(true)
	ref.setInference(true)
	out := ref.forwardBatch(xb, n)
	wantMean, wantStd := make([]float64, 2), make([]float64, 2)
	for i := 0; i < n; i++ {
		for j, v := range out[i*2 : (i+1)*2] {
			d := v - wantMean[j]
			wantMean[j] += d / float64(i+1)
			wantStd[j] += d * (v - wantMean[j])
		}
	}
	for j := range wantStd {
		wantStd[j] = math.Sqrt(wantStd[j] / n)
	}
	expectBits(t, "mean", mean, wantMean, false)
	expectBits(t, "std", std, wantStd, false)
}

// TestPredictWithUncertaintyRateZero pins that a dropout layer with rate 0
// draws no spread: the Monte-Carlo mean is Predict bit for bit.
func TestPredictWithUncertaintyRateZero(t *testing.T) {
	m := buildModel(t, 45, []int{8},
		NewDense(6), NewActivation(Tanh), NewDropout(0), NewDense(2))
	x := []float64{1, -1, 0.5, 2, 0, 1, -0.5, 0.25}
	for _, n := range []int{2, 7} {
		mean, std, err := m.PredictWithUncertainty(x, n)
		if err != nil {
			t.Fatal(err)
		}
		expectBits(t, "mean n="+itoa(n), mean, m.Predict(x), false)
		expectBits(t, "std n="+itoa(n), std, []float64{0, 0}, false)
	}
}

func TestFitRejectsNonFiniteData(t *testing.T) {
	m := buildModel(t, 61, []int{2}, NewDense(1))
	nan := math.NaN()
	if _, err := m.Fit([][]float64{{1, nan}}, [][]float64{{1}}, FitConfig{}); err == nil {
		t.Fatal("NaN feature must be rejected")
	}
	if _, err := m.Fit([][]float64{{1, 2}}, [][]float64{{math.Inf(1)}}, FitConfig{}); err == nil {
		t.Fatal("Inf label must be rejected")
	}
}

func TestSetLROnAllOptimizers(t *testing.T) {
	for _, name := range []string{"sgd", "momentum", "adam"} {
		opt, err := OptimizerByName(name, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		s, ok := opt.(LRSettable)
		if !ok {
			t.Fatalf("%s does not implement LRSettable", name)
		}
		s.SetLR(0.42)
	}
}
