package nn

import (
	"fmt"
	"math"
	"sync"
	"time"

	"specml/internal/dataset"
	"specml/internal/obs"
	"specml/internal/parallel"
	"specml/internal/rng"
	"specml/internal/tensor/pool"
)

// prefetchDepth is the streamed-fit pipeline depth: how many mini-batch
// buffers may be rendered ahead of training. Two is double buffering —
// batch N+1 renders while batch N trains — and also caps the concurrent
// render workers. The fitted model does not depend on it.
const prefetchDepth = 2

// fitSlot is one in-flight mini-batch of the streamed-fit prefetch
// pipeline. The coordinator copies the epoch-permutation indices in, a
// render worker fills the rows from the source, and the training loop
// consumes them — each stage owns the slot exclusively between handoffs, so
// the buffers are reused without locking (grow-only: a fit allocates its
// slots once and then runs at zero steady-state allocation).
type fitSlot struct {
	idx   []int       // global sample indices of this batch (coordinator-copied)
	x, y  [][]float64 // rendered feature/label rows, slot-owned
	n     int         // samples in this batch
	epoch int
	err   error
	ready chan struct{} // one token per completed render
}

// FitSource trains the model from a batch-granular data source through a
// prefetch pipeline: a coordinator goroutine draws the epoch permutation
// (same shuffle stream as Fit), render workers fill up to prefetchDepth
// mini-batch buffers ahead (batch N+1 renders while batch N trains), and
// the training loop consumes the buffers in issue order. All optimizer,
// dropout and shuffle streams advance exactly as in Fit, and sources render
// sample i independently of scheduling, so a streamed fit is bit-identical
// to materializing the source and calling Fit — for any worker count or
// batch size.
//
// Rows coming out of the source are validated (finite values) as they are
// rendered, on the render workers, off the training hot path.
//
// The whole fit runs under a pprof "fit" stage label like Fit.
func (m *Model) FitSource(src dataset.Source, cfg FitConfig) (*History, error) {
	var hist *History
	err := obs.WithStage("fit", func() error {
		var ferr error
		hist, ferr = m.fitSource(src, cfg, true)
		return ferr
	})
	if err != nil {
		return nil, err
	}
	return hist, nil
}

// cloneHistory deep-copies a checkpointed history so resumed fits never
// alias the checkpoint's slices.
func cloneHistory(h *History) *History {
	if h == nil {
		return &History{BestEpoch: -1}
	}
	return &History{
		TrainLoss: append([]float64(nil), h.TrainLoss...),
		ValLoss:   append([]float64(nil), h.ValLoss...),
		BestEpoch: h.BestEpoch,
		Stopped:   h.Stopped,
	}
}

// fitSource is the engine behind Fit and FitSource. validate selects
// producer-side row validation (Fit pre-validates materialized rows and
// skips it).
func (m *Model) fitSource(src dataset.Source, cfg FitConfig, validate bool) (*History, error) {
	if !m.built {
		return nil, fmt.Errorf("nn: Fit before Build")
	}
	n := src.Len()
	if n <= 0 {
		return nil, fmt.Errorf("nn: Fit needs a non-empty data source, got %d samples", n)
	}
	if len(cfg.ValX) != len(cfg.ValY) {
		return nil, fmt.Errorf("nn: validation sample counts differ (%d, %d)", len(cfg.ValX), len(cfg.ValY))
	}
	inLen, outLen := m.InputLen(), m.OutputLen()
	xw, yw := src.Widths()
	if xw != inLen {
		return nil, fmt.Errorf("nn: source has %d features, model expects %d", xw, inLen)
	}
	if yw != outLen {
		return nil, fmt.Errorf("nn: source has %d label values, model expects %d", yw, outLen)
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	if cfg.Loss == nil {
		cfg.Loss = MAE
	}
	if cfg.Optimizer == nil {
		cfg.Optimizer = NewAdam(0)
	}
	if cfg.LRSchedule != nil {
		if _, ok := cfg.Optimizer.(LRSettable); !ok {
			return nil, fmt.Errorf("nn: optimizer %s does not support LR scheduling", cfg.Optimizer.Name())
		}
	}
	if cfg.CheckpointPath != "" {
		if _, ok := cfg.Optimizer.(StatefulOptimizer); !ok {
			return nil, fmt.Errorf("nn: optimizer %s does not support checkpointing", cfg.Optimizer.Name())
		}
	}

	src0 := rng.New(cfg.Seed)
	// Dropout masks must not depend on worker scheduling, so each sample
	// gets a fresh per-sample stream seeded in sample order from a root
	// split off the fit source. The split is taken only when the model has
	// dropout, keeping the shuffle stream of dropout-free models unchanged.
	hasDrop := m.hasDropout()
	var dropRoot *rng.Source
	if hasDrop {
		dropRoot = src0.Split()
	}

	masterParams := m.Params()
	hist := &History{BestEpoch: -1}
	bestVal := math.Inf(1)
	var bestModel *Model
	sinceBest := 0

	// Resume: restore weights, optimizer state and best-epoch bookkeeping,
	// then fast-forward the shuffle and dropout streams past the completed
	// epochs so the continuation replays the exact draw sequence an
	// uninterrupted fit would have used.
	startEpoch := 0
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if ck := cfg.Resume; ck != nil {
		so, ok := cfg.Optimizer.(StatefulOptimizer)
		if !ok {
			return nil, fmt.Errorf("nn: optimizer %s does not support checkpointing", cfg.Optimizer.Name())
		}
		if ck.Seed != cfg.Seed {
			return nil, fmt.Errorf("nn: checkpoint seed %d does not match FitConfig seed %d", ck.Seed, cfg.Seed)
		}
		if ck.Samples != n {
			return nil, fmt.Errorf("nn: checkpoint trained on %d samples, source has %d", ck.Samples, n)
		}
		if ck.BatchSize != cfg.BatchSize {
			return nil, fmt.Errorf("nn: checkpoint batch size %d does not match %d", ck.BatchSize, cfg.BatchSize)
		}
		if ck.Optimizer.Name != cfg.Optimizer.Name() {
			return nil, fmt.Errorf("nn: checkpoint optimizer %q does not match %q", ck.Optimizer.Name, cfg.Optimizer.Name())
		}
		if ck.Model == nil {
			return nil, fmt.Errorf("nn: checkpoint has no model weights")
		}
		if err := m.CopyParamsFrom(ck.Model); err != nil {
			return nil, fmt.Errorf("nn: restoring checkpoint weights: %w", err)
		}
		if err := so.RestoreState(masterParams, ck.Optimizer); err != nil {
			return nil, err
		}
		hist = cloneHistory(ck.History)
		bestVal = math.Float64frombits(ck.BestValBits)
		sinceBest = ck.SinceBest
		bestModel = ck.Best
		startEpoch = ck.Epoch
		for e := 0; e < startEpoch; e++ {
			src0.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
			if hasDrop {
				for k := 0; k < n; k++ {
					dropRoot.Uint64()
				}
			}
		}
	}
	if startEpoch >= cfg.Epochs {
		return hist, nil
	}

	// Each mini-batch runs one batched forward/backward on the model, with
	// the kernels sharded over the workers (shard.go); the sharding keeps
	// the per-sample accumulation order, so the fit is bit-identical for any
	// Workers value. Everything that runs the model after the fit gets
	// serial kernels.
	m.setKernelWorkers(parallel.Resolve(cfg.Workers))
	defer m.setKernelWorkers(1)
	maxB := cfg.BatchSize
	if maxB > n {
		maxB = n
	}
	xblock := make([]float64, maxB*inLen)
	gblock := make([]float64, maxB*outLen)
	var batchSeeds []uint64
	if hasDrop {
		batchSeeds = make([]uint64, maxB)
	}
	var val dataset.Source
	if len(cfg.ValX) > 0 {
		var err error
		if val, err = dataset.NewInMemory(cfg.ValX, cfg.ValY); err != nil {
			return nil, fmt.Errorf("nn: validation data: %w", err)
		}
	}

	var mx *fitMetrics
	if cfg.Metrics != nil {
		mx = newFitMetrics(cfg.Metrics)
	}

	// --- prefetch pipeline -------------------------------------------------
	batchesPerEpoch := (n + cfg.BatchSize - 1) / cfg.BatchSize
	prefetch := prefetchDepth
	if prefetch > batchesPerEpoch*(cfg.Epochs-startEpoch) {
		prefetch = batchesPerEpoch * (cfg.Epochs - startEpoch)
	}
	renderWorkers := parallel.Resolve(cfg.Workers)
	if renderWorkers > prefetch {
		renderWorkers = prefetch
	}

	free := make(chan *fitSlot, prefetch)
	orderq := make(chan *fitSlot, prefetch)
	work := make(chan *fitSlot, prefetch)
	done := make(chan struct{})
	for s := 0; s < prefetch; s++ {
		sl := &fitSlot{
			idx:   make([]int, 0, maxB),
			x:     make([][]float64, maxB),
			y:     make([][]float64, maxB),
			ready: make(chan struct{}, 1),
		}
		for j := 0; j < maxB; j++ {
			sl.x[j] = pool.Grow(nil, inLen)
			sl.y[j] = pool.Grow(nil, outLen)
		}
		free <- sl
	}

	var wg sync.WaitGroup
	// Coordinator: owns the shuffle stream and the cumulative permutation.
	// It runs ahead of training by at most `prefetch` batches (bounded by
	// the free list), copying each batch's indices into the slot before
	// issuing it, so reshuffling for epoch e+1 never races a slot still
	// rendering epoch e.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(work)
		defer close(orderq)
		for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
			src0.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
			for start := 0; start < n; start += cfg.BatchSize {
				end := start + cfg.BatchSize
				if end > n {
					end = n
				}
				var sl *fitSlot
				select {
				case sl = <-free:
				case <-done:
					return
				}
				sl.idx = append(sl.idx[:0], idx[start:end]...)
				sl.n = end - start
				sl.epoch = epoch
				sl.err = nil
				select {
				case orderq <- sl:
				case <-done:
					return
				}
				select {
				case work <- sl:
				case <-done:
					return
				}
			}
		}
	}()
	// Render workers: fill slots from the source. Each slot is rendered by
	// exactly one worker, so at most prefetchDepth render at once.
	for w := 0; w < renderWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for sl := range work {
				sl.err = renderFitSlot(src, sl, validate)
				sl.ready <- struct{}{}
			}
		}()
	}
	defer func() {
		close(done)
		// Drain pending slots so render workers never block; buffers die
		// with the pipeline.
		wg.Wait()
	}()

	// --- training loop (consumer) ------------------------------------------
	for epoch := startEpoch; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		if cfg.LRSchedule != nil {
			cfg.Optimizer.(LRSettable).SetLR(cfg.LRSchedule(epoch))
		}
		m.SetTraining(true)
		epochLoss := 0.0
		for start := 0; start < n; start += cfg.BatchSize {
			var waitStart time.Time
			if mx != nil {
				waitStart = time.Now()
			}
			sl := <-orderq
			<-sl.ready
			if mx != nil {
				mx.renderWait.ObserveSince(waitStart)
			}
			if sl.err != nil {
				return nil, sl.err
			}
			var computeStart time.Time
			if mx != nil {
				computeStart = time.Now()
			}
			bn := sl.n
			m.ZeroGrad()
			// Assemble the mini-batch into one row-major block and run a
			// single batched forward/backward. Dropout seeds are drawn in
			// sample order, and the losses accumulate in sample order, so
			// shuffling, masks and epoch loss match per-sample training
			// exactly.
			for j := 0; j < bn; j++ {
				copy(xblock[j*inLen:(j+1)*inLen], sl.x[j])
			}
			if hasDrop {
				for j := 0; j < bn; j++ {
					batchSeeds[j] = dropRoot.Uint64()
				}
				m.reseedDropoutBatch(batchSeeds[:bn])
			}
			yb := m.forwardBatch(xblock[:bn*inLen], bn)
			for j := 0; j < bn; j++ {
				row := yb[j*outLen : (j+1)*outLen]
				epochLoss += cfg.Loss.Loss(row, sl.y[j])
				cfg.Loss.Grad(row, sl.y[j], gblock[j*outLen:(j+1)*outLen])
			}
			m.backwardBatch(gblock[:bn*outLen], bn)
			// average gradients over the batch
			inv := 1 / float64(bn)
			for _, p := range masterParams {
				for i := range p.Grad {
					p.Grad[i] *= inv
				}
			}
			if cfg.ClipNorm > 0 {
				clipGradNorm(masterParams, cfg.ClipNorm)
			}
			cfg.Optimizer.Step(masterParams)
			if mx != nil {
				mx.computeSecs.ObserveSince(computeStart)
				mx.batches.Inc()
			}
			free <- sl
		}
		m.SetTraining(false)
		epochLoss /= float64(n)
		hist.TrainLoss = append(hist.TrainLoss, epochLoss)
		if mx != nil {
			mx.epochs.Inc()
			mx.samples.Add(uint64(n))
			mx.epochSeconds.ObserveSince(epochStart)
			mx.trainLoss.Set(epochLoss)
		}

		stopping := false
		if val != nil {
			valLoss, _, verr := m.evaluateSource(val, cfg.BatchSize, cfg.Loss, false)
			if verr != nil {
				return nil, verr
			}
			hist.ValLoss = append(hist.ValLoss, valLoss)
			if mx != nil {
				mx.valLoss.Set(valLoss)
			}
			if cfg.Verbose != nil {
				fmt.Fprintf(cfg.Verbose, "epoch %3d  train=%.6f  val=%.6f\n", epoch+1, epochLoss, valLoss)
			}
			if valLoss < bestVal {
				bestVal = valLoss
				hist.BestEpoch = epoch
				sinceBest = 0
				if cfg.KeepBest || cfg.Patience > 0 {
					c, err := m.Clone()
					if err != nil {
						return nil, err
					}
					bestModel = c
				}
			} else {
				sinceBest++
				if cfg.Patience > 0 && sinceBest >= cfg.Patience {
					stopping = true
				}
			}
		} else if cfg.Verbose != nil {
			fmt.Fprintf(cfg.Verbose, "epoch %3d  train=%.6f\n", epoch+1, epochLoss)
		}

		if cfg.CheckpointPath != "" {
			every := cfg.CheckpointEvery
			if every <= 0 {
				every = 1
			}
			if (epoch+1)%every == 0 || epoch == cfg.Epochs-1 || stopping {
				ck, err := m.snapshotCheckpoint(cfg, n, epoch+1, hist, bestVal, sinceBest, bestModel)
				if err != nil {
					return nil, err
				}
				if err := SaveCheckpointFile(cfg.CheckpointPath, ck); err != nil {
					return nil, err
				}
			}
		}
		if stopping {
			hist.Stopped = true
			break
		}
	}
	if bestModel != nil && (cfg.KeepBest || hist.Stopped) {
		if err := m.CopyParamsFrom(bestModel); err != nil {
			return nil, err
		}
	}
	return hist, nil
}

// renderFitSlot fills one slot from the source and, when validate is set,
// rejects non-finite rendered values with the sample's global index — the
// same contract Fit enforces on materialized rows, applied as rows are
// rendered (off the training hot path, on the render workers).
func renderFitSlot(src dataset.Source, sl *fitSlot, validate bool) error {
	if err := src.Batch(sl.epoch, sl.idx, sl.x[:sl.n], sl.y[:sl.n]); err != nil {
		return err
	}
	if !validate {
		return nil
	}
	for j := 0; j < sl.n; j++ {
		for _, v := range sl.x[j] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: sample %d contains a non-finite feature", sl.idx[j])
			}
		}
		for _, v := range sl.y[j] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("nn: label %d contains a non-finite value", sl.idx[j])
			}
		}
	}
	return nil
}
