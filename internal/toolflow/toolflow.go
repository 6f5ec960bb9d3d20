// Package toolflow is Tool 4 of the paper's MS toolchain: the automated
// definition, training, evaluation and selection of ANN topologies.
// Networks are declared as data (TopologySpec), so "the definition of one
// or more network topologies and the training- and validation datasets to
// use" requires no source-code changes; the whole training process runs
// without user interaction, and backend helpers evaluate trained networks,
// select the best one by a quality criterion and export it. Every step is
// recorded in the provenance store.
package toolflow

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"specml/internal/dataset"
	"specml/internal/nn"
	"specml/internal/rng"
	"specml/internal/store"
)

// TopologySpec declares one trainable network plus its training recipe.
type TopologySpec struct {
	Name       string         `json:"name"`
	Layers     []nn.LayerSpec `json:"layers"`
	Loss       string         `json:"loss"`      // "mae" (default), "mse", "huber"
	Optimizer  string         `json:"optimizer"` // "adam" (default), "sgd", "momentum"
	LR         float64        `json:"lr"`
	Epochs     int            `json:"epochs"`
	BatchSize  int            `json:"batchSize"`
	Seed       uint64         `json:"seed"`
	Patience   int            `json:"patience"`
	KeepBest   bool           `json:"keepBest"`
	InputShape []int          `json:"inputShape"`
	// Workers is the data-parallel training worker count (0 = all cores);
	// the trained network is bit-identical for any value.
	Workers int `json:"workers,omitempty"`
	// Checkpoint, when non-empty, is a specml/ckpt/v1 file TrainSource
	// writes after each epoch and resumes from when it already exists.
	Checkpoint string `json:"checkpoint,omitempty"`
}

// Build constructs and initializes the network.
func (t *TopologySpec) Build() (*nn.Model, error) {
	if len(t.InputShape) == 0 {
		return nil, fmt.Errorf("toolflow: topology %q has no input shape", t.Name)
	}
	m, err := nn.FromSpecs(t.Layers)
	if err != nil {
		return nil, fmt.Errorf("toolflow: topology %q: %w", t.Name, err)
	}
	if err := m.Build(rng.New(t.Seed), t.InputShape...); err != nil {
		return nil, fmt.Errorf("toolflow: topology %q: %w", t.Name, err)
	}
	return m, nil
}

// Result is one trained network with its evaluation record.
type Result struct {
	Spec      TopologySpec
	Model     *nn.Model
	History   *nn.History
	ValMAE    float64
	ValPerOut []float64
	TrainTime time.Duration
	// StoreID is the provenance-store document of the trained network
	// (empty when no store was attached).
	StoreID string
}

// Runner trains topology specs against datasets and records provenance.
type Runner struct {
	// Store, when non-nil, receives one document per trained network.
	Store *store.Store
	// DatasetID and SimulatorID are provenance parents recorded on each
	// trained network.
	DatasetID   string
	SimulatorID string
	// Verbose, when non-nil, receives progress lines.
	Verbose io.Writer
}

// Train trains one topology on train/val data.
func (r *Runner) Train(spec TopologySpec, train, val *dataset.Dataset) (*Result, error) {
	if err := train.Validate(); err != nil {
		return nil, fmt.Errorf("toolflow: training data: %w", err)
	}
	return r.train(spec, val, func(m *nn.Model, cfg nn.FitConfig) (*nn.History, error) {
		return m.Fit(train.X, train.Y, cfg)
	})
}

// TrainSource trains one topology from a streaming data source: samples are
// rendered on demand through the nn prefetch pipeline instead of being
// materialized, so corpus size is bounded by disk-free determinism, not
// host RAM. The trained network is bit-identical to Train on the
// materialized equivalent of the source.
//
// When spec.Checkpoint names an existing specml/ckpt/v1 file, training
// resumes from it (and continues writing there after every epoch); a fresh
// run simply starts writing checkpoints.
func (r *Runner) TrainSource(spec TopologySpec, train dataset.Source, val *dataset.Dataset) (*Result, error) {
	if train == nil {
		return nil, fmt.Errorf("toolflow: training source is nil")
	}
	var resume *nn.Checkpoint
	if spec.Checkpoint != "" {
		if _, err := os.Stat(spec.Checkpoint); err == nil {
			ck, err := nn.LoadCheckpointFile(spec.Checkpoint)
			if err != nil {
				return nil, fmt.Errorf("toolflow: resuming %q: %w", spec.Name, err)
			}
			resume = ck
			if r.Verbose != nil {
				fmt.Fprintf(r.Verbose, "== resuming %s from %s (epoch %d)\n", spec.Name, spec.Checkpoint, ck.Epoch)
			}
		}
	}
	return r.train(spec, val, func(m *nn.Model, cfg nn.FitConfig) (*nn.History, error) {
		cfg.CheckpointPath = spec.Checkpoint
		cfg.Resume = resume
		return m.FitSource(train, cfg)
	})
}

// train is the shared body of Train and TrainSource.
func (r *Runner) train(spec TopologySpec, val *dataset.Dataset,
	fit func(*nn.Model, nn.FitConfig) (*nn.History, error)) (*Result, error) {
	if err := val.Validate(); err != nil {
		return nil, fmt.Errorf("toolflow: validation data: %w", err)
	}
	m, err := spec.Build()
	if err != nil {
		return nil, err
	}
	loss, err := nn.LossByName(spec.Loss)
	if err != nil {
		return nil, err
	}
	opt, err := nn.OptimizerByName(spec.Optimizer, spec.LR)
	if err != nil {
		return nil, err
	}
	if r.Verbose != nil {
		fmt.Fprintf(r.Verbose, "== training %s (%d parameters)\n", spec.Name, m.NumParams())
	}
	start := time.Now()
	hist, err := fit(m, nn.FitConfig{
		Epochs:    spec.Epochs,
		BatchSize: spec.BatchSize,
		Loss:      loss,
		Optimizer: opt,
		Seed:      spec.Seed,
		ValX:      val.X,
		ValY:      val.Y,
		Patience:  spec.Patience,
		KeepBest:  spec.KeepBest,
		Verbose:   r.Verbose,
		Workers:   spec.Workers,
	})
	if err != nil {
		return nil, fmt.Errorf("toolflow: training %q: %w", spec.Name, err)
	}
	elapsed := time.Since(start)
	mae, perOut := m.EvaluateMAE(val.X, val.Y)
	res := &Result{
		Spec:      spec,
		Model:     m,
		History:   hist,
		ValMAE:    mae,
		ValPerOut: perOut,
		TrainTime: elapsed,
	}
	if r.Store != nil {
		var parents []string
		if r.DatasetID != "" {
			parents = append(parents, r.DatasetID)
		}
		if r.SimulatorID != "" {
			parents = append(parents, r.SimulatorID)
		}
		id, err := r.Store.Put("networks", map[string]string{
			"name":   spec.Name,
			"loss":   loss.Name(),
			"valMAE": fmt.Sprintf("%.6f", mae),
		}, parents, spec)
		if err != nil {
			return nil, err
		}
		res.StoreID = id
	}
	return res, nil
}

// TrainAll trains every spec on the same data and returns the results in
// input order.
func (r *Runner) TrainAll(specs []TopologySpec, train, val *dataset.Dataset) ([]*Result, error) {
	out := make([]*Result, 0, len(specs))
	for _, spec := range specs {
		res, err := r.Train(spec, train, val)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// SelectBest returns the result with the lowest validation MAE (the
// default "selectable quality criterion").
func SelectBest(results []*Result) (*Result, error) {
	if len(results) == 0 {
		return nil, fmt.Errorf("toolflow: no results to select from")
	}
	sorted := append([]*Result(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ValMAE < sorted[j].ValMAE })
	return sorted[0], nil
}

// Export writes the trained model of a result as JSON (the "tool to export
// the desired ANN for use on embedded platforms").
func Export(res *Result, w io.Writer) error {
	if res == nil || res.Model == nil {
		return fmt.Errorf("toolflow: nothing to export")
	}
	return res.Model.Save(w)
}
