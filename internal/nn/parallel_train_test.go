package nn

import (
	"fmt"
	"math"
	"testing"

	"specml/internal/dataset"
	"specml/internal/rng"
)

// dropNet builds a small model containing dropout — the layer whose
// per-sample randomness is the hard part of worker-count determinism.
func dropNet(t *testing.T) *Model {
	t.Helper()
	m := NewModel().
		Add(NewDense(16)).
		Add(NewActivation(ReLU)).
		Add(NewDropout(0.3)).
		Add(NewDense(3)).
		Add(NewSoftmax())
	if err := m.Build(rng.New(7), 12); err != nil {
		t.Fatal(err)
	}
	return m
}

func parallelFitData(n, in, out int, seed uint64) (x, y [][]float64) {
	src := rng.New(seed)
	x = make([][]float64, n)
	y = make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, in)
		for j := range x[i] {
			x[i][j] = src.Normal(0, 1)
		}
		y[i] = make([]float64, out)
		src.Dirichlet(1, y[i])
	}
	return x, y
}

// shardConvNet is a conv stack large enough that FitSource shards its
// kernels: an overlapping-stride conv (per-sample input-gradient loop) and
// a non-overlapping one (Gemm + Col2Im), SELU activations and a softmax
// head.
func shardConvNet(t *testing.T) *Model {
	t.Helper()
	m := NewModel().
		Add(NewReshape(3200, 1)).
		Add(NewConv1D(25, 16, 2)).
		Add(NewActivation(SELU)).
		Add(NewConv1D(15, 4, 4)).
		Add(NewActivation(SELU)).
		Add(NewFlatten()).
		Add(NewDense(3)).
		Add(NewSoftmax())
	if err := m.Build(rng.New(8), 3200); err != nil {
		t.Fatal(err)
	}
	return m
}

// shardLSTMNet is an LSTM+Dense stack large enough that FitSource shards
// the input projection, the per-timestep dx GEMM and the deferred
// parameter-gradient loop.
func shardLSTMNet(t *testing.T) *Model {
	t.Helper()
	m := NewModel().Add(NewLSTM(16)).Add(NewDense(3))
	if err := m.Build(rng.New(9), 8, 1200); err != nil {
		t.Fatal(err)
	}
	return m
}

// fitWithWorkers trains a fresh model from build through FitSource with the
// given worker count and returns every fitted parameter value.
func fitWithWorkers(t *testing.T, build func(*testing.T) *Model, workers int, x, y [][]float64) ([]float64, *History) {
	t.Helper()
	m := build(t)
	src, err := dataset.NewInMemory(x, y)
	if err != nil {
		t.Fatal(err)
	}
	hist, err := m.FitSource(src, FitConfig{
		Epochs:    2,
		BatchSize: 8,
		Seed:      11,
		Workers:   workers,
		ValX:      x[:10],
		ValY:      y[:10],
		KeepBest:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var flat []float64
	for _, p := range m.Params() {
		flat = append(flat, p.Data...)
	}
	return flat, hist
}

// TestFitBitIdenticalAcrossWorkerCounts is the training half of the
// determinism guarantee: equal seeds and data must produce bitwise-equal
// models regardless of the Workers setting — with dropout active, and with
// the conv, activation and LSTM kernels sharded over the workers. 41
// samples in batches of 8 leave a last batch of one sample, fewer than
// every multi-worker count, so single-sample shards and serial fallbacks
// mix inside one fit.
func TestFitBitIdenticalAcrossWorkerCounts(t *testing.T) {
	stacks := []struct {
		name  string
		build func(*testing.T) *Model
	}{
		{"dense+dropout", dropNet},
		{"conv", shardConvNet},
		{"lstm", shardLSTMNet},
	}
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			in := st.build(t).InputLen()
			x, y := parallelFitData(41, in, 3, 3)
			ref, refHist := fitWithWorkers(t, st.build, 1, x, y)
			for _, workers := range []int{2, 3, 8, 0} {
				got, hist := fitWithWorkers(t, st.build, workers, x, y)
				if len(got) != len(ref) {
					t.Fatalf("workers=%d: %d params vs %d", workers, len(got), len(ref))
				}
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("workers=%d: param %d = %x, want %x (bitwise)", workers, i, got[i], ref[i])
					}
				}
				for e := range refHist.TrainLoss {
					if hist.TrainLoss[e] != refHist.TrainLoss[e] {
						t.Fatalf("workers=%d: epoch %d train loss %x, want %x", workers, e, hist.TrainLoss[e], refHist.TrainLoss[e])
					}
				}
				for e := range refHist.ValLoss {
					if hist.ValLoss[e] != refHist.ValLoss[e] {
						t.Fatalf("workers=%d: epoch %d val loss %x, want %x", workers, e, hist.ValLoss[e], refHist.ValLoss[e])
					}
				}
			}
		})
	}
}

// TestShardStacksReachShards guards the test above against silently
// testing nothing: at batch 8 and two workers, every sharded kernel of the
// conv and LSTM stacks must actually split, and at the last batch's single
// sample at least the weight-gradient kernels must still split.
func TestShardStacksReachShards(t *testing.T) {
	two := &kernelShards{workers: 2}
	expect := func(name string, units, work int) {
		t.Helper()
		if w := two.shards(units, work); w != 2 {
			t.Errorf("%s: %d units of total work %d split into %d shards, want 2", name, units, work, w)
		}
	}
	conv := shardConvNet(t).Layers()
	for _, i := range []int{1, 3} {
		c := conv[i].(*Conv1D)
		work := c.outLen * c.Filters * c.Kernel * c.inCh
		expect(fmt.Sprintf("conv %d forward / input gradient", i), 8, 8*work)
		expect(fmt.Sprintf("conv %d weight gradient", i), c.Filters, 8*work)
		expect(fmt.Sprintf("conv %d weight gradient, one sample", i), c.Filters, work)
	}
	act := conv[2].(*ActivationLayer).width
	expect("activation 2 forward", 8, 8*act*activationForwardWork)
	expect("activation 2 backward", 8, 8*act*activationBackwardWork)
	l := shardLSTMNet(t).Layers()[0].(*LSTM)
	g := 4 * l.Units
	expect("lstm input projection", 8*l.steps, 8*l.steps*g*l.features)
	expect("lstm dx step", 8, 8*l.features*g)
	expect("lstm parameter gradient", g, 8*l.steps*g*(l.features+l.Units))
	expect("lstm parameter gradient, one sample", g, l.steps*g*(l.features+l.Units))
}

// TestShardedStepMatchesSerial checks one batched forward+backward step
// kernel by kernel: outputs, the input gradient (which training discards
// at the first layer) and every parameter gradient must be bitwise equal
// with the kernels sharded and serial.
func TestShardedStepMatchesSerial(t *testing.T) {
	for _, st := range []struct {
		name  string
		build func(*testing.T) *Model
	}{{"conv", shardConvNet}, {"lstm", shardLSTMNet}} {
		step := func(workers, n int) (y, gin []float64, grads [][]float64) {
			m := st.build(t)
			m.setKernelWorkers(workers)
			src := rng.New(6)
			x := make([]float64, n*m.InputLen())
			g := make([]float64, n*m.OutputLen())
			fillBatch(src, x)
			fillBatch(src, g)
			y = append(y, m.forwardBatch(x, n)...)
			gin = append(gin, backwardAll(m, g, n)...)
			for _, p := range m.Params() {
				grads = append(grads, p.Grad)
			}
			return y, gin, grads
		}
		for _, n := range []int{1, 8} {
			refY, refGin, refGrads := step(1, n)
			for _, workers := range []int{2, 3} {
				name := fmt.Sprintf("%s n=%d workers=%d", st.name, n, workers)
				y, gin, grads := step(workers, n)
				expectBits(t, name+" output", y, refY, false)
				expectBits(t, name+" input gradient", gin, refGin, false)
				for i := range grads {
					expectBits(t, fmt.Sprintf("%s param %d gradient", name, i), grads[i], refGrads[i], false)
				}
			}
		}
	}
}

// TestBatchStepZeroAlloc pins the serial kernel path — the one PredictBatch
// and the serve batcher run at one worker — at zero allocations for a
// batched forward+backward step on a conv stack and on an LSTM stack.
func TestBatchStepZeroAlloc(t *testing.T) {
	for _, st := range []struct {
		name  string
		build func(*testing.T) *Model
	}{{"conv", shardConvNet}, {"lstm", shardLSTMNet}} {
		m := st.build(t)
		m.setKernelWorkers(1)
		const n = 2
		src := rng.New(4)
		x := make([]float64, n*m.InputLen())
		g := make([]float64, n*m.OutputLen())
		fillBatch(src, x)
		fillBatch(src, g)
		// Many runs, so that a rare runtime-internal allocation (the
		// scheduler starting a thread) averages below one per step.
		allocs := testing.AllocsPerRun(50, func() {
			m.ZeroGrad()
			m.forwardBatch(x, n)
			m.backwardBatch(g, n)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocations per batched step, want 0", st.name, allocs)
		}
	}
}

// nmrCNNNet is a stack of the paper's NMR CNN shape: reshape, a locally
// connected layer with kernel and stride 9, flatten and a dense head.
func nmrCNNNet(t *testing.T) *Model {
	t.Helper()
	m := NewModel().
		Add(NewReshape(900, 1)).
		Add(NewLocallyConnected1D(4, 9, 9)).
		Add(NewFlatten()).
		Add(NewDense(4))
	if err := m.Build(rng.New(10), 900); err != nil {
		t.Fatal(err)
	}
	return m
}

// kernelWorkers returns the kernel worker count of every sharding layer:
// given unlimited units and work, shards returns exactly that count.
func kernelWorkers(m *Model) []int {
	var ws []int
	for _, l := range m.Layers() {
		if ks, ok := l.(interface{ shards(units, work int) int }); ok {
			ws = append(ws, ks.shards(math.MaxInt32, math.MaxInt64))
		}
	}
	return ws
}

// TestPredictBatchMatchesPredict checks that Predict and batched inference
// return exactly what the per-sample reference does, for several worker
// counts, on a conv stack, an NMR-CNN stack and an LSTM stack; that
// PredictBatch leaves every kernel serial; and that it allocates only what
// it returns.
func TestPredictBatchMatchesPredict(t *testing.T) {
	const rows = 9
	stacks := []struct {
		name  string
		build func(*testing.T) *Model
	}{
		{"conv", shardConvNet},
		{"nmr-cnn", nmrCNNNet},
		{"lstm", shardLSTMNet},
	}
	for _, st := range stacks {
		t.Run(st.name, func(t *testing.T) {
			m := st.build(t)
			x, _ := parallelFitData(rows, m.InputLen(), 3, 9)
			want := make([][]float64, len(x))
			for i := range x {
				want[i] = refPredict(m, x[i])
				expectBits(t, fmt.Sprintf("predict sample %d", i), m.Predict(x[i]), want[i], false)
			}
			for _, workers := range []int{1, 2, 3, 8, 0} {
				got, err := m.PredictBatch(x, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					expectBits(t, fmt.Sprintf("workers=%d sample %d", workers, i), got[i], want[i], false)
				}
				for _, w := range kernelWorkers(m) {
					if w != 1 {
						t.Fatalf("workers=%d: a kernel worker count is %d after PredictBatch, want 1", workers, w)
					}
				}
			}
			// Steady state allocates only the returned slices.
			allocs := testing.AllocsPerRun(20, func() {
				if _, err := m.PredictBatch(x, 1); err != nil {
					t.Fatal(err)
				}
			})
			if want := float64(len(x) + 1); allocs != want {
				t.Errorf("%v allocations per PredictBatch, want %v", allocs, want)
			}
		})
	}

	// The conv and LSTM stacks must really split at two workers.
	two := &kernelShards{workers: 2}
	conv := shardConvNet(t).Layers()
	for _, i := range []int{1, 3} {
		c := conv[i].(*Conv1D)
		if w := two.shards(rows, rows*c.outLen*c.Filters*c.Kernel*c.inCh); w != 2 {
			t.Errorf("conv %d forward split into %d shards, want 2", i, w)
		}
	}
	l := shardLSTMNet(t).Layers()[0].(*LSTM)
	if w := two.shards(rows*l.steps, rows*l.steps*4*l.Units*l.features); w != 2 {
		t.Errorf("lstm input projection split into %d shards, want 2", w)
	}
}

// TestFitParallelMatchesLSTM runs the same check on an LSTM topology,
// whose layer caches are the richest (per-step states and gates).
func TestFitParallelMatchesLSTM(t *testing.T) {
	build := func() *Model {
		m := NewModel().Add(NewLSTM(6)).Add(NewDense(2))
		if err := m.Build(rng.New(5), 4, 3); err != nil {
			t.Fatal(err)
		}
		return m
	}
	src := rng.New(21)
	x := make([][]float64, 24)
	y := make([][]float64, 24)
	for i := range x {
		x[i] = make([]float64, 12)
		for j := range x[i] {
			x[i][j] = src.Normal(0, 1)
		}
		y[i] = []float64{src.Float64(), src.Float64()}
	}
	fit := func(workers int) []float64 {
		m := build()
		if _, err := m.Fit(x, y, FitConfig{Epochs: 3, BatchSize: 5, Seed: 2, Workers: workers, ClipNorm: 1}); err != nil {
			t.Fatal(err)
		}
		var flat []float64
		for _, p := range m.Params() {
			flat = append(flat, p.Data...)
		}
		return flat
	}
	ref := fit(1)
	for _, workers := range []int{4, 0} {
		got := fit(workers)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("workers=%d: param %d differs bitwise", workers, i)
			}
		}
	}
}
