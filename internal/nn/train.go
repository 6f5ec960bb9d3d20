package nn

import (
	"fmt"
	"io"
	"math"

	"specml/internal/dataset"
	"specml/internal/obs"
)

// FitConfig configures Model.Fit.
type FitConfig struct {
	Epochs    int       // number of passes over the training data (default 10)
	BatchSize int       // gradient-accumulation batch size (default 32)
	Loss      Loss      // default MAE
	Optimizer Optimizer // default Adam(1e-3)
	// Seed drives shuffling; fits with equal seeds and data are identical.
	Seed uint64
	// ValX/ValY, when non-empty, are evaluated after every epoch; with
	// Patience > 0 training stops early when validation loss has not
	// improved for Patience epochs, and the best-epoch weights are
	// restored ("the network with the best performance on the experimental
	// validation dataset was selected").
	ValX, ValY [][]float64
	Patience   int
	// KeepBest restores the weights of the best validation epoch even
	// without early stopping.
	KeepBest bool
	// Verbose, when non-nil, receives one progress line per epoch.
	Verbose io.Writer
	// ClipNorm, when positive, rescales the per-batch gradient so its
	// global L2 norm never exceeds this value (stabilizes LSTM training).
	ClipNorm float64
	// LRSchedule, when non-nil, sets the optimizer learning rate before
	// each epoch (0-based). The optimizer must implement LRSettable.
	LRSchedule func(epoch int) float64
	// Workers is the number of cores one training step uses (0 = all
	// cores). The batched convolution, activation and LSTM kernels split
	// every call over this many goroutines, each along an axis whose
	// output elements no other shard touches (samples, GEMM rows, filters,
	// gate rows), so every element keeps its single ascending-order
	// accumulator and the fit is bit-identical for any worker count: equal
	// seeds and data produce equal models regardless of Workers or
	// GOMAXPROCS. Kernels too small to repay a fork/join stay serial.
	// Workers also caps the concurrent corpus render workers.
	Workers int
	// Metrics, when non-nil, receives training progress: epoch, sample and
	// batch throughput counters, epoch-duration, render-wait and
	// compute-time histograms, and the latest train/validation losses as
	// gauges. Recording is off the per-sample hot path (per batch at most),
	// so instrumented fits are not slower.
	Metrics *obs.Registry
	// CheckpointPath, when non-empty, writes a specml/ckpt/v1 training
	// checkpoint (weights + optimizer state + epoch/permutation cursor)
	// there after every CheckpointEvery epochs, atomically (tmp + rename).
	// The optimizer must implement StatefulOptimizer.
	CheckpointPath string
	// CheckpointEvery is the checkpoint cadence in epochs (default 1). The
	// final epoch and an early stop always checkpoint.
	CheckpointEvery int
	// Resume, when non-nil, restores the checkpointed weights, optimizer
	// state and best-epoch bookkeeping, then continues training at the
	// checkpoint's epoch cursor. The seed, sample count, batch size and
	// optimizer must match the original fit; the continuation is then
	// bit-identical to an uninterrupted fit.
	Resume *Checkpoint
}

// fitMetrics bundles the instruments Fit records into, resolved once per
// call so the epoch loop records without registry lookups.
type fitMetrics struct {
	epochs       *obs.Counter
	samples      *obs.Counter
	batches      *obs.Counter
	epochSeconds *obs.Histogram
	renderWait   *obs.Histogram
	computeSecs  *obs.Histogram
	trainLoss    *obs.Gauge
	valLoss      *obs.Gauge
}

// fitEpochBuckets spans 1ms..~2m, covering toy fits through full corpus
// epochs.
var fitEpochBuckets = obs.ExponentialBuckets(1e-3, 2, 18)

// fitBatchBuckets spans 1µs..~4s of per-batch render-wait and compute time.
// Render wait near zero means generation hides behind training compute;
// wait comparable to compute means the fit is render-bound (raise Workers).
var fitBatchBuckets = obs.ExponentialBuckets(1e-6, 2, 22)

func newFitMetrics(reg *obs.Registry) *fitMetrics {
	return &fitMetrics{
		epochs:       reg.Counter("specml_fit_epochs_total", "Training epochs completed."),
		samples:      reg.Counter("specml_fit_samples_total", "Training samples processed (epochs x dataset size)."),
		batches:      reg.Counter("specml_fit_batches_total", "Training mini-batches processed."),
		epochSeconds: reg.Histogram("specml_fit_epoch_seconds", "Wall-clock duration of one training epoch.", fitEpochBuckets),
		renderWait:   reg.Histogram("specml_fit_render_wait_seconds", "Time the training loop waited for the next mini-batch from the data source.", fitBatchBuckets),
		computeSecs:  reg.Histogram("specml_fit_compute_seconds", "Forward/backward/optimizer time of one mini-batch.", fitBatchBuckets),
		trainLoss:    reg.Gauge("specml_fit_train_loss", "Training loss of the most recent epoch."),
		valLoss:      reg.Gauge("specml_fit_val_loss", "Validation loss of the most recent epoch."),
	}
}

// History records per-epoch training metrics.
type History struct {
	TrainLoss []float64 `json:"trainLoss,omitempty"`
	ValLoss   []float64 `json:"valLoss,omitempty"`
	BestEpoch int       `json:"bestEpoch"`         // index into the loss slices; -1 when no validation data
	Stopped   bool      `json:"stopped,omitempty"` // true when early stopping triggered
}

// Fit trains the model with mini-batch gradient descent. X and Y hold one
// flat sample per row. Internally the rows are wrapped in a trivial
// in-memory dataset.Source and trained through the same prefetch pipeline
// as FitSource, bit-identically to the historical materialized loop. The
// whole fit runs under a pprof "fit" stage label (inherited by the kernel
// shard and render goroutines), so CPU profiles attribute training time even when
// a fit shares its process with serving.
func (m *Model) Fit(x, y [][]float64, cfg FitConfig) (*History, error) {
	var hist *History
	err := obs.WithStage("fit", func() error {
		var ferr error
		hist, ferr = m.fit(x, y, cfg)
		return ferr
	})
	if err != nil {
		return nil, err
	}
	return hist, nil
}

func (m *Model) fit(x, y [][]float64, cfg FitConfig) (*History, error) {
	if !m.built {
		return nil, fmt.Errorf("nn: Fit before Build")
	}
	if len(x) == 0 || len(x) != len(y) {
		return nil, fmt.Errorf("nn: Fit needs equal, non-zero sample counts (%d, %d)", len(x), len(y))
	}
	if len(cfg.ValX) != len(cfg.ValY) {
		return nil, fmt.Errorf("nn: validation sample counts differ (%d, %d)", len(cfg.ValX), len(cfg.ValY))
	}
	inLen, outLen := m.InputLen(), m.OutputLen()
	for i := range x {
		if len(x[i]) != inLen {
			return nil, fmt.Errorf("nn: sample %d has %d features, model expects %d", i, len(x[i]), inLen)
		}
		if len(y[i]) != outLen {
			return nil, fmt.Errorf("nn: label %d has %d values, model expects %d", i, len(y[i]), outLen)
		}
		for _, v := range x[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("nn: sample %d contains a non-finite feature", i)
			}
		}
		for _, v := range y[i] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("nn: label %d contains a non-finite value", i)
			}
		}
	}
	src, err := dataset.NewInMemory(x, y)
	if err != nil {
		return nil, fmt.Errorf("nn: %w", err)
	}
	// Rows were validated above; skip the producer-side re-check.
	return m.fitSource(src, cfg, false)
}

// clipGradNorm rescales all gradients so the global L2 norm does not
// exceed maxNorm.
func clipGradNorm(params []*Param, maxNorm float64) {
	total := 0.0
	for _, p := range params {
		for _, g := range p.Grad {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm <= maxNorm || norm == 0 {
		return
	}
	scale := maxNorm / norm
	for _, p := range params {
		for i := range p.Grad {
			p.Grad[i] *= scale
		}
	}
}

// PredictWithUncertainty estimates the prediction and its epistemic
// uncertainty by Monte-Carlo dropout: n stochastic forward passes with the
// dropout layers active, returning per-output mean and standard deviation.
// The model must contain at least one Dropout layer for the std to be
// meaningful ("real-time estimates of error margins" — the paper's
// future-work direction for online monitoring).
func (m *Model) PredictWithUncertainty(x []float64, n int) (mean, std []float64, err error) {
	if n < 2 {
		return nil, nil, fmt.Errorf("nn: need at least 2 MC samples, got %d", n)
	}
	m.SetTraining(true)
	defer m.SetTraining(false)
	k := m.OutputLen()
	mean = make([]float64, k)
	sq := make([]float64, k)
	for i := 0; i < n; i++ {
		out := m.Forward(x)
		for j, v := range out {
			mean[j] += v
			sq[j] += v * v
		}
	}
	std = make([]float64, k)
	inv := 1 / float64(n)
	for j := range mean {
		mean[j] *= inv
		variance := sq[j]*inv - mean[j]*mean[j]
		if variance < 0 {
			variance = 0
		}
		std[j] = math.Sqrt(variance)
	}
	return mean, std, nil
}

// EvaluateLoss returns the mean loss over a dataset.
func (m *Model) EvaluateLoss(x, y [][]float64, loss Loss) float64 {
	if loss == nil {
		loss = MAE
	}
	m.SetTraining(false)
	m.setInference(true)
	defer m.setInference(false)
	total := 0.0
	for i := range x {
		out := m.Forward(x[i])
		total += loss.Loss(out, y[i])
	}
	if len(x) == 0 {
		return 0
	}
	return total / float64(len(x))
}

// EvaluateMAE returns the overall mean absolute error and the per-output
// mean absolute errors over a dataset — the per-substance error bars of
// Figs. 5-7.
func (m *Model) EvaluateMAE(x, y [][]float64) (mean float64, perOutput []float64) {
	m.SetTraining(false)
	if len(x) == 0 {
		return 0, nil
	}
	m.setInference(true)
	defer m.setInference(false)
	perOutput = make([]float64, m.OutputLen())
	for i := range x {
		out := m.Forward(x[i])
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
	return sum / float64(len(perOutput)), perOutput
}

// EvaluateMSE returns the overall mean squared error over a dataset.
func (m *Model) EvaluateMSE(x, y [][]float64) float64 {
	return m.EvaluateLoss(x, y, MSE)
}

// EvaluateLossSource computes the mean loss over a dataset.Source in
// fixed-size chunks: each chunk is rendered into a pooled scratch block,
// forwarded through the batched kernels and released, so peak memory holds
// one chunk regardless of src.Len(). The per-sample losses are summed in
// index order and the batched forward is bit-identical to per-sample
// Forward, so the result equals EvaluateLoss(Materialize(src)) bit for bit. chunk <= 0 means a single
// chunk (only sensible for small sources).
func (m *Model) EvaluateLossSource(src dataset.Source, loss Loss, chunk int) (float64, error) {
	if loss == nil {
		loss = MAE
	}
	total, _, err := m.evaluateSource(src, chunk, loss, false)
	return total, err
}

// EvaluateMAESource is EvaluateMAE over a dataset.Source, evaluated in
// fixed-size chunks like EvaluateLossSource: bounded memory, bit-identical
// to materializing the source first.
func (m *Model) EvaluateMAESource(src dataset.Source, chunk int) (mean float64, perOutput []float64, err error) {
	return m.evaluateSource(src, chunk, nil, true)
}

// evaluateSource is the shared chunked-evaluation driver. With wantMAE it
// accumulates per-output absolute errors (EvaluateMAE semantics); otherwise
// it sums loss.Loss per sample. Both accumulate in ascending sample order —
// the same addition sequence as the materialized evaluators.
func (m *Model) evaluateSource(src dataset.Source, chunk int, loss Loss, wantMAE bool) (float64, []float64, error) {
	n := src.Len()
	if n == 0 {
		return 0, nil, nil
	}
	xw, yw := src.Widths()
	if xw != m.InputLen() || yw != m.OutputLen() {
		return 0, nil, fmt.Errorf("nn: source rows are %dx%d, model wants %dx%d", xw, yw, m.InputLen(), m.OutputLen())
	}
	if chunk <= 0 || chunk > n {
		chunk = n
	}
	m.SetTraining(false)
	m.setInference(true)
	defer m.setInference(false)
	xb := batchScratch.Get(chunk * xw)
	defer batchScratch.Put(xb)
	yb := batchScratch.Get(chunk * yw)
	defer batchScratch.Put(yb)
	indices := make([]int, chunk)
	dstX := make([][]float64, chunk)
	dstY := make([][]float64, chunk)
	for j := 0; j < chunk; j++ {
		indices[j] = j
		dstX[j] = xb[j*xw : (j+1)*xw]
		dstY[j] = yb[j*yw : (j+1)*yw]
	}
	var perOutput []float64
	if wantMAE {
		perOutput = make([]float64, yw)
	}
	total := 0.0
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		bn := end - start
		for j := 0; j < bn; j++ {
			indices[j] = start + j
		}
		if err := src.Batch(0, indices[:bn], dstX[:bn], dstY[:bn]); err != nil {
			return 0, nil, err
		}
		out := m.forwardBatch(xb[:bn*xw], bn)
		for j := 0; j < bn; j++ {
			pred := out[j*yw : (j+1)*yw]
			if wantMAE {
				for k, p := range pred {
					perOutput[k] += math.Abs(p - dstY[j][k])
				}
			} else {
				total += loss.Loss(pred, dstY[j])
			}
		}
	}
	if !wantMAE {
		// total / n, not total * (1/n): the two differ in the last bit for
		// some totals, and EvaluateLoss divides.
		return total / float64(n), nil, nil
	}
	inv := 1 / float64(n)
	sum := 0.0
	for k := range perOutput {
		perOutput[k] *= inv
		sum += perOutput[k]
	}
	return sum / float64(len(perOutput)), perOutput, nil
}
