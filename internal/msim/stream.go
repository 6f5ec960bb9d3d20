package msim

import (
	"fmt"
	"sync"

	"specml/internal/dataset"
	"specml/internal/obs"
	"specml/internal/rng"
	"specml/internal/spectrum"
)

// NewTrainingStream is the streaming counterpart of GenerateTrainingWith:
// a dataset.Source that renders sample i on demand instead of materializing
// the corpus. The per-sample child seeds come from the same sequential-draw
// construction as the materialized generator, so a stream built from equal
// (sim, model, axis, n, alpha, seed, opts) yields rows bit-identical to the
// generated dataset — feeding it to nn.Model.FitSource trains the exact
// model a materialize-then-Fit run would, while holding only the in-flight
// mini-batches in memory.
//
// The second return value is the compound name list (dataset.Dataset.Names
// of the materialized equivalent). Batch is safe for concurrent calls; it
// reuses pooled raw-spectrum buffers and performs zero steady-state
// allocation per sample.
func NewTrainingStream(sim *LineSimulator, model *InstrumentModel, axis spectrum.Axis,
	n int, alpha float64, seed uint64, opts TrainingOptions) (*dataset.Stream, []string, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("msim: need a positive sample count, got %d", n)
	}
	if err := model.Validate(); err != nil {
		return nil, nil, err
	}

	cache, err := newRenderCache(sim, model, axis)
	if err != nil {
		return nil, nil, err
	}
	var raws sync.Pool
	raws.New = func() any { b := make([]float64, axis.N); return &b }
	render := func(_ int, src *rng.Source, x, y []float64) error {
		rp := raws.Get().(*[]float64)
		cache.renderInto(x, y, *rp, alpha, src)
		raws.Put(rp)
		return nil
	}

	s, err := dataset.NewStream(n, axis.N, sim.NumCompounds(), seed, render)
	if err != nil {
		return nil, nil, err
	}
	if opts.Metrics != nil {
		c := opts.Metrics.Counter("specml_corpus_samples_total",
			"Simulated training samples generated.", obs.L("source", "msim"))
		s.OnBatch = func(rendered int) { c.Add(uint64(rendered)) }
	}
	return s, sim.Names(), nil
}
