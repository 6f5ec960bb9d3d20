package nn

import (
	"strings"
	"testing"

	"specml/internal/dataset"
	"specml/internal/obs"
	"specml/internal/rng"
)

// streamCorpus builds a deterministic streaming corpus shaped for dropNet
// (12 features, 3-class Dirichlet labels) — the same rows regardless of how
// they are batched or scheduled.
func streamCorpus(t *testing.T, n int, seed uint64) *dataset.Stream {
	t.Helper()
	s, err := dataset.NewStream(n, 12, 3, seed, func(i int, src *rng.Source, x, y []float64) error {
		for j := range x {
			x[j] = src.Normal(0, 1)
		}
		src.Dirichlet(1, y)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func flatParams(m *Model) []float64 {
	var flat []float64
	for _, p := range m.Params() {
		flat = append(flat, p.Data...)
	}
	return flat
}

// TestFitSourceBitIdenticalToFit is the streaming determinism guarantee the
// acceptance criteria pin: training from a streamed source must produce
// bit-identical weights to materializing the same source and calling Fit,
// for worker counts {1, 4} — with dropout active,
// so the per-sample rng streams are exercised too.
func TestFitSourceBitIdenticalToFit(t *testing.T) {
	const n = 40
	src := streamCorpus(t, n, 3)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	d, err := dataset.Materialize(src, idx)
	if err != nil {
		t.Fatal(err)
	}

	cfg := FitConfig{
		Epochs:    4,
		BatchSize: 8,
		Seed:      11,
		ValX:      d.X[:10],
		ValY:      d.Y[:10],
		KeepBest:  true,
	}
	ref := dropNet(t)
	refHist, err := ref.Fit(d.X, d.Y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refFlat := flatParams(ref)

	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		m := dropNet(t)
		hist, err := m.FitSource(streamCorpus(t, n, 3), c)
		if err != nil {
			t.Fatal(err)
		}
		got := flatParams(m)
		for i := range got {
			if got[i] != refFlat[i] {
				t.Fatalf("workers=%d: param %d = %x, want %x (bitwise)",
					workers, i, got[i], refFlat[i])
			}
		}
		for e := range refHist.TrainLoss {
			if hist.TrainLoss[e] != refHist.TrainLoss[e] {
				t.Fatalf("workers=%d: epoch %d train loss differs bitwise", workers, e)
			}
		}
		for e := range refHist.ValLoss {
			if hist.ValLoss[e] != refHist.ValLoss[e] {
				t.Fatalf("workers=%d: epoch %d val loss differs bitwise", workers, e)
			}
		}
	}
}

// TestFitSourceBitIdenticalLSTM runs the same check on a recurrent stack.
// Since the batched LSTM kernels landed this trains through the batched
// GEMM path (the stack is fully batchable), and the materialized Fit it is
// compared against must stay bitwise equal for any worker count.
func TestFitSourceBitIdenticalLSTM(t *testing.T) {
	const n = 24
	corpus := func() *dataset.Stream {
		s, err := dataset.NewStream(n, 12, 2, 21, func(i int, src *rng.Source, x, y []float64) error {
			for j := range x {
				x[j] = src.Normal(0, 1)
			}
			y[0], y[1] = src.Float64(), src.Float64()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	build := func() *Model {
		m := NewModel().Add(NewLSTM(6)).Add(NewDense(2))
		if err := m.Build(rng.New(5), 4, 3); err != nil {
			t.Fatal(err)
		}
		return m
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	d, err := dataset.Materialize(corpus(), idx)
	if err != nil {
		t.Fatal(err)
	}
	cfg := FitConfig{Epochs: 3, BatchSize: 5, Seed: 2, ClipNorm: 1}
	ref := build()
	if _, err := ref.Fit(d.X, d.Y, cfg); err != nil {
		t.Fatal(err)
	}
	refFlat := flatParams(ref)
	for _, workers := range []int{1, 4} {
		c := cfg
		c.Workers = workers
		m := build()
		if _, err := m.FitSource(corpus(), c); err != nil {
			t.Fatal(err)
		}
		got := flatParams(m)
		for i := range got {
			if got[i] != refFlat[i] {
				t.Fatalf("workers=%d: LSTM param %d differs bitwise", workers, i)
			}
		}
	}
}

// TestFitSourceValidation covers the streamed path's error contract.
func TestFitSourceValidation(t *testing.T) {
	m := dropNet(t)
	if _, err := NewModel().Add(NewDense(2)).FitSource(streamCorpus(t, 4, 1), FitConfig{}); err == nil {
		t.Fatal("unbuilt model accepted")
	}
	wrong, err := dataset.NewStream(4, 5, 3, 1, func(i int, src *rng.Source, x, y []float64) error {
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitSource(wrong, FitConfig{}); err == nil || !strings.Contains(err.Error(), "features") {
		t.Fatalf("feature-width mismatch not rejected: %v", err)
	}
	bad, err := dataset.NewStream(4, 12, 3, 1, func(i int, src *rng.Source, x, y []float64) error {
		x[0] = 1
		if i == 2 {
			x[1] = 0
			x[0] /= x[1] // +Inf
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.FitSource(bad, FitConfig{Epochs: 1, BatchSize: 2}); err == nil ||
		!strings.Contains(err.Error(), "sample 2 contains a non-finite feature") {
		t.Fatalf("non-finite rendered feature not rejected with its global index: %v", err)
	}
}

// TestFitSourceMetrics checks the new pipeline counters and histograms fire.
func TestFitSourceMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	m := dropNet(t)
	if _, err := m.FitSource(streamCorpus(t, 16, 7), FitConfig{
		Epochs: 2, BatchSize: 8, Metrics: reg,
	}); err != nil {
		t.Fatal(err)
	}
	if v := reg.Counter("specml_fit_batches_total", "").Value(); v != 4 {
		t.Fatalf("batches counter = %d, want 4", v)
	}
	if v := reg.Counter("specml_fit_epochs_total", "").Value(); v != 2 {
		t.Fatalf("epochs counter = %d, want 2", v)
	}
	if v := reg.Counter("specml_fit_samples_total", "").Value(); v != 32 {
		t.Fatalf("samples counter = %d, want 32", v)
	}
	if h := reg.Histogram("specml_fit_render_wait_seconds", "", fitBatchBuckets); h.Count() != 4 {
		t.Fatalf("render-wait histogram count = %d, want 4", h.Count())
	}
	if h := reg.Histogram("specml_fit_compute_seconds", "", fitBatchBuckets); h.Count() != 4 {
		t.Fatalf("compute histogram count = %d, want 4", h.Count())
	}
}

// TestEvaluateSourceChunked pins the evaluators: EvaluateLoss, EvaluateMAE
// and, for any chunk size, EvaluateLossSource and EvaluateMAESource match
// the per-sample reference bit for bit. The seeds include totals whose
// mean differs in the last bit between total/n and total*(1/n).
func TestEvaluateSourceChunked(t *testing.T) {
	const n = 23
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for seed := uint64(1); seed <= 20; seed++ {
		d, err := dataset.Materialize(streamCorpus(t, n, seed), idx)
		if err != nil {
			t.Fatal(err)
		}
		m := NewModel().Add(NewDense(8)).Add(NewActivation(SELU)).Add(NewDense(3))
		if err := m.Build(rng.New(seed), 12); err != nil {
			t.Fatal(err)
		}
		wantLoss, wantMean, wantPer := refEvaluate(m, d.X, d.Y, MSE)
		check := func(what string, loss, mean float64, per []float64) {
			t.Helper()
			if loss != wantLoss {
				t.Fatalf("seed=%d %s: loss %x, want %x (bitwise)", seed, what, loss, wantLoss)
			}
			if mean != wantMean {
				t.Fatalf("seed=%d %s: MAE %v, want %v (bitwise)", seed, what, mean, wantMean)
			}
			for j := range wantPer {
				if per[j] != wantPer[j] {
					t.Fatalf("seed=%d %s: per-output MAE %d differs bitwise", seed, what, j)
				}
			}
		}
		mean, per := m.EvaluateMAE(d.X, d.Y)
		check("in memory", m.EvaluateLoss(d.X, d.Y, MSE), mean, per)
		for _, chunk := range []int{0, 1, 5, n, 50} {
			src := streamCorpus(t, n, seed)
			loss, err := m.EvaluateLossSource(src, MSE, chunk)
			if err != nil {
				t.Fatal(err)
			}
			mean, per, err := m.EvaluateMAESource(src, chunk)
			if err != nil {
				t.Fatal(err)
			}
			check("chunk="+itoa(chunk), loss, mean, per)
		}
	}
	// width mismatch is an error, not a panic
	m := NewModel().Add(NewDense(2))
	if err := m.Build(rng.New(3), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := m.EvaluateLossSource(streamCorpus(t, n, 29), MSE, 4); err == nil {
		t.Fatal("mismatched source widths must error")
	}
}

// TestEvaluateKeepsCachesBounded pins the evaluators' chunk: the layer
// caches are grow-only, so EvaluateMAE and EvaluateLoss over a large set
// must size them for one chunk of at most 32 rows, not for the whole set.
func TestEvaluateKeepsCachesBounded(t *testing.T) {
	const rows, width = 200, 40
	m := NewModel().
		Add(NewReshape(width, 1)).
		Add(NewConv1D(4, 5, 2)).
		Add(NewActivation(ReLU)).
		Add(NewFlatten()).
		Add(NewDense(3))
	if err := m.Build(rng.New(71), width); err != nil {
		t.Fatal(err)
	}
	src := rng.New(72)
	x, y := make([][]float64, rows), make([][]float64, rows)
	for i := range x {
		x[i], y[i] = make([]float64, width), make([]float64, 3)
		fillBatch(src, x[i])
	}
	m.EvaluateMAE(x, y)
	m.EvaluateLoss(x, y, MSE)
	c := m.layers[1].(*Conv1D)
	if held := cap(c.bcol) / (c.outLen * c.Kernel * c.inCh); held > 32 {
		t.Fatalf("conv im2col cache holds %d rows after evaluating %d, want at most 32", held, rows)
	}
}
