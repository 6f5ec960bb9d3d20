// Package core is the public high-level API of the library: end-to-end
// pipelines that tie the substrates together exactly the way the paper's
// two projects do.
//
//   - MSPipeline: characterize a (virtual) miniaturized mass spectrometer
//     from a few reference measurements, generate an arbitrarily large
//     simulated training corpus, train the Table-1 CNN and predict
//     substance concentrations from measured spectra — with the input
//     plausibility check the paper calls for.
//   - NMRPipeline: fit Indirect-Hard-Modelling component models to a few
//     pure-component spectra, augment them into a large synthetic corpus,
//     train the small locally-connected CNN and the LSTM time-series
//     model, and benchmark both against classical IHM analysis.
//   - Monitor: a closed-loop process-monitoring helper with alarm limits.
package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"

	"specml/internal/dataset"
	"specml/internal/msim"
	"specml/internal/rng"
	"specml/internal/spectrum"
	"specml/internal/store"
	"specml/internal/toolflow"
)

// MSConfig configures an MSPipeline.
type MSConfig struct {
	// Task lists the compound names whose concentrations are predicted
	// (defaults to msim.DefaultTask).
	Task []string
	// Axis is the instrument's m/z axis (defaults to msim.DefaultAxis).
	Axis spectrum.Axis
	// TrainSamples is the size of the simulated training corpus, split
	// 80/20 into training and validation (paper: 100 000; default 2000 for
	// laptop-scale runs).
	TrainSamples int
	// Alpha is the Dirichlet concentration of random training mixtures.
	Alpha float64
	// Epochs, BatchSize and LR drive the training loop (LR defaults to
	// 5e-3, which converges at laptop-scale corpus sizes).
	Epochs    int
	BatchSize int
	LR        float64
	// Seed makes the pipeline fully deterministic.
	Seed uint64
	// Workers is the worker count for corpus generation, training and batch
	// evaluation (0 = all cores). Every result is bit-identical for any
	// value, so Workers is a pure throughput knob.
	Workers int
	// Hidden, Conv6 and Output select the Table-1 activation variant
	// (defaults: selu/softmax/softmax, the paper's best).
	Hidden, Conv6, Output string
	// PlausibilityThreshold is the maximum tolerated fraction of
	// above-baseline signal outside known fragment regions before Predict
	// rejects an input (default 0.08).
	PlausibilityThreshold float64
	// Store, when non-nil, records datasets and networks with provenance.
	Store *store.Store
}

func (c *MSConfig) withDefaults() (*MSConfig, error) {
	out := *c
	if len(out.Task) == 0 {
		out.Task = msim.DefaultTask
	}
	if out.Axis.N == 0 {
		out.Axis = msim.DefaultAxis()
	}
	if out.TrainSamples <= 0 {
		out.TrainSamples = 2000
	}
	if out.Alpha <= 0 {
		out.Alpha = 1.0
	}
	if out.Epochs <= 0 {
		out.Epochs = 8
	}
	if out.BatchSize <= 0 {
		out.BatchSize = 32
	}
	if out.LR <= 0 {
		out.LR = 0.005
	}
	if out.Hidden == "" {
		out.Hidden = "selu"
	}
	if out.Conv6 == "" {
		out.Conv6 = "softmax"
	}
	if out.Output == "" {
		out.Output = "softmax"
	}
	if out.PlausibilityThreshold <= 0 {
		out.PlausibilityThreshold = 0.08
	}
	return &out, nil
}

// MSPipeline is the end-to-end MS flow.
type MSPipeline struct {
	cfg *MSConfig
	sim *msim.LineSimulator
	// instrument is the Tool-2 estimate used by Tool 3.
	instrument *msim.InstrumentModel
	result     *toolflow.Result

	refsID, simID, dataID string
}

// NewMSPipeline validates the configuration and resolves the measurement
// task.
func NewMSPipeline(cfg MSConfig) (*MSPipeline, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	comps, err := msim.Compounds(c.Task...)
	if err != nil {
		return nil, err
	}
	sim, err := msim.NewLineSimulator(comps)
	if err != nil {
		return nil, err
	}
	return &MSPipeline{cfg: c, sim: sim}, nil
}

// LineSimulator exposes Tool 1 (for reference collection and experiments).
func (p *MSPipeline) LineSimulator() *msim.LineSimulator { return p.sim }

// Names returns the substance names in label order.
func (p *MSPipeline) Names() []string { return p.sim.Names() }

// Characterize runs Tool 2 on reference measurements and installs the
// estimated instrument model.
func (p *MSPipeline) Characterize(refs []msim.ReferenceSeries) error {
	ch := &msim.Characterizer{Task: p.sim.Compounds(), IgnitionMZ: 4}
	est, err := ch.Estimate(refs)
	if err != nil {
		return err
	}
	p.instrument = est
	if p.cfg.Store != nil {
		rid, err := p.cfg.Store.Put("measurements", map[string]string{
			"kind":   "reference-series",
			"series": fmt.Sprintf("%d", len(refs)),
		}, nil, len(refs))
		if err != nil {
			return err
		}
		p.refsID = rid
		sid, err := p.cfg.Store.Put("simulators", map[string]string{
			"kind": "instrument-model",
		}, []string{rid}, est)
		if err != nil {
			return err
		}
		p.simID = sid
	}
	return nil
}

// SetInstrumentModel installs an externally produced instrument model
// (e.g., in ablations that bypass characterization).
func (p *MSPipeline) SetInstrumentModel(m *msim.InstrumentModel) error {
	if err := m.Validate(); err != nil {
		return err
	}
	p.instrument = m.Clone()
	return nil
}

// InstrumentModel returns the current (estimated) model, or nil before
// characterization.
func (p *MSPipeline) InstrumentModel() *msim.InstrumentModel { return p.instrument }

// GenerateTraining produces the simulated labelled corpus via Tools 1+3.
func (p *MSPipeline) GenerateTraining() (*dataset.Dataset, error) {
	if p.instrument == nil {
		return nil, fmt.Errorf("core: characterize the instrument before generating training data")
	}
	d, err := msim.GenerateTraining(p.sim, p.instrument, p.cfg.Axis,
		p.cfg.TrainSamples, p.cfg.Alpha, p.cfg.Seed+1, p.cfg.Workers)
	if err != nil {
		return nil, err
	}
	if p.cfg.Store != nil {
		var parents []string
		if p.simID != "" {
			parents = append(parents, p.simID)
		}
		id, err := p.cfg.Store.Put("datasets", map[string]string{
			"kind":    "simulated-training",
			"samples": fmt.Sprintf("%d", d.Len()),
		}, parents, d.Len())
		if err != nil {
			return nil, err
		}
		p.dataID = id
	}
	return d, nil
}

// Train generates the corpus, splits it 80/20 and trains the configured
// Table-1 variant. verbose may be nil.
func (p *MSPipeline) Train(verbose io.Writer) (*toolflow.Result, error) {
	d, err := p.GenerateTraining()
	if err != nil {
		return nil, err
	}
	d.Shuffle(rng.New(p.cfg.Seed + 2))
	train, val, err := d.Split(0.8)
	if err != nil {
		return nil, err
	}
	spec, err := toolflow.MSTable1Spec(p.cfg.Axis.N, p.sim.NumCompounds(),
		p.cfg.Hidden, p.cfg.Conv6, p.cfg.Output, p.cfg.Epochs, p.cfg.BatchSize, p.cfg.Seed)
	if err != nil {
		return nil, err
	}
	spec.LR = p.cfg.LR
	spec.Workers = p.cfg.Workers
	runner := &toolflow.Runner{
		Store:       p.cfg.Store,
		DatasetID:   p.dataID,
		SimulatorID: p.simID,
		Verbose:     verbose,
	}
	res, err := runner.Train(spec, train, val)
	if err != nil {
		return nil, err
	}
	p.result = res
	return res, nil
}

// Result returns the trained network record, or nil before Train.
func (p *MSPipeline) Result() *toolflow.Result { return p.result }

// ErrImplausibleInput is returned by Predict when the measured spectrum
// does not look like a spectrum of the configured measurement task — "in
// the case of inputs containing unknown compounds ... no meaningful output
// can be expected".
type ErrImplausibleInput struct {
	Reason string
	// UnknownFraction is the intensity fraction outside known fragment
	// regions.
	UnknownFraction float64
}

func (e *ErrImplausibleInput) Error() string {
	return fmt.Sprintf("core: implausible input: %s (unknown-region intensity fraction %.3f)",
		e.Reason, e.UnknownFraction)
}

// CheckPlausibility verifies that a preprocessed input vector concentrates
// its signal near the known fragment positions of the task (plus the
// ignition artifact). The instrument's baseline and noise floor are
// removed first by subtracting the median intensity, so only genuine
// peaks count toward the unknown-region fraction.
func (p *MSPipeline) CheckPlausibility(x []float64) error {
	if len(x) != p.cfg.Axis.N {
		return fmt.Errorf("core: input length %d, expected %d", len(x), p.cfg.Axis.N)
	}
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return &ErrImplausibleInput{Reason: "non-finite intensity"}
		}
	}
	// baseline proxy: the median sample (most of the axis is peak-free)
	sorted := append([]float64(nil), x...)
	sort.Float64s(sorted)
	baseline := sorted[len(sorted)/2]
	total := 0.0
	excess := make([]float64, len(x))
	for i, v := range x {
		if e := v - baseline; e > 0 {
			excess[i] = e
			total += e
		}
	}
	if total <= 0 {
		return &ErrImplausibleInput{Reason: "no signal"}
	}
	// collect known positions: every fragment of every task compound plus
	// the ignition artifact
	var known []float64
	for _, c := range p.sim.Compounds() {
		for _, f := range c.Fragments {
			known = append(known, f.Position)
		}
	}
	known = append(known, 4) // ignition gas
	unknown := 0.0
	for i, e := range excess {
		if e == 0 {
			continue
		}
		mz := p.cfg.Axis.Value(i)
		near := false
		for _, k := range known {
			if math.Abs(mz-k) < 0.75 {
				near = true
				break
			}
		}
		if !near {
			unknown += e
		}
	}
	frac := unknown / total
	if frac > p.cfg.PlausibilityThreshold {
		return &ErrImplausibleInput{Reason: "signal outside known fragment regions", UnknownFraction: frac}
	}
	return nil
}

// UnknownSignalFraction computes the plausibility statistic without
// applying the threshold (for diagnostics and dashboards).
func (p *MSPipeline) UnknownSignalFraction(x []float64) (float64, error) {
	err := p.CheckPlausibility(x)
	if err == nil {
		// recompute by temporarily using a zero threshold would duplicate
		// work; instead rerun with the error carrying the fraction
		saved := p.cfg.PlausibilityThreshold
		p.cfg.PlausibilityThreshold = -1
		err = p.CheckPlausibility(x)
		p.cfg.PlausibilityThreshold = saved
	}
	var impl *ErrImplausibleInput
	if errors.As(err, &impl) {
		return impl.UnknownFraction, nil
	}
	return 0, err
}

// Predict maps a measured spectrum to substance fractions. Spectra on a
// different axis are interpolated onto the training axis first; the
// plausibility check rejects inputs that cannot belong to the task.
func (p *MSPipeline) Predict(s *spectrum.Spectrum) ([]float64, error) {
	if p.result == nil {
		return nil, fmt.Errorf("core: train the pipeline before predicting")
	}
	rs := s
	if !s.Axis.Equal(p.cfg.Axis) {
		rs = s.Resample(p.cfg.Axis)
	}
	x := msim.Preprocess(rs)
	if err := p.CheckPlausibility(x); err != nil {
		return nil, err
	}
	return p.result.Model.Predict(x), nil
}

// EvaluateOn computes evaluation metrics of the trained network over a
// measured dataset.
func (p *MSPipeline) EvaluateOn(d *dataset.Dataset) (*dataset.Metrics, error) {
	if p.result == nil {
		return nil, fmt.Errorf("core: train the pipeline before evaluating")
	}
	preds, err := p.result.Model.PredictBatch(d.X, p.cfg.Workers)
	if err != nil {
		return nil, err
	}
	return dataset.Evaluate(preds, d.Y)
}
