package core

import (
	"fmt"
	"io"
	"time"

	"specml/internal/dataset"
	"specml/internal/ihm"
	"specml/internal/nmrsim"
	"specml/internal/rng"
	"specml/internal/spectrum"
	"specml/internal/toolflow"
)

// NMRConfig configures an NMRPipeline.
type NMRConfig struct {
	// TrainSamples is the synthetic-corpus size for the CNN (paper:
	// 300 000; default 1500 for laptop-scale runs).
	TrainSamples int
	// Windows and Steps configure the LSTM corpus: Windows samples of
	// Steps consecutive spectra (paper: 5 timesteps).
	Windows int
	Steps   int
	// MaxRepeat is the plateau-emulation repetition bound ("repeated
	// random training spectra one to twenty times").
	MaxRepeat int
	// Epochs/BatchSize for both models.
	Epochs    int
	BatchSize int
	// Seed drives everything.
	Seed uint64
	// Workers is the worker count for synthetic-corpus generation and
	// data-parallel training (0 = all cores); results are bit-identical
	// for any value.
	Workers int
	// MaxPureFitPeaks bounds the IHM pure-component fits.
	MaxPureFitPeaks int
	// Stream renders both training corpora on demand through the nn
	// prefetch pipeline instead of materializing them: the CNN corpus via a
	// per-sample seeded stream, the order-dependent rolling-window LSTM
	// corpus via a recorded-state windowed source (nmrsim.TimeSeriesStream).
	// The trained networks are bit-identical to the materialized path; peak
	// memory holds only the in-flight mini-batches.
	Stream bool
	// Checkpoint, when non-empty, is the specml/ckpt/v1 path streamed CNN
	// training writes after every epoch and resumes from when it already
	// exists. Requires Stream.
	Checkpoint string
	// LSTMCheckpoint is Checkpoint for streamed LSTM training. It must
	// differ from Checkpoint — the two models' checkpoints are not
	// interchangeable.
	LSTMCheckpoint string
}

func (c *NMRConfig) withDefaults() *NMRConfig {
	out := *c
	if out.TrainSamples <= 0 {
		out.TrainSamples = 1500
	}
	if out.Windows <= 0 {
		out.Windows = 400
	}
	if out.Steps <= 0 {
		out.Steps = 5
	}
	if out.MaxRepeat <= 0 {
		out.MaxRepeat = 20
	}
	if out.Epochs <= 0 {
		out.Epochs = 12
	}
	if out.BatchSize <= 0 {
		out.BatchSize = 32
	}
	if out.MaxPureFitPeaks <= 0 {
		out.MaxPureFitPeaks = 8
	}
	return &out
}

// NMRPipeline is the end-to-end NMR flow.
type NMRPipeline struct {
	cfg *NMRConfig
	// LowField is the process (benchtop) instrument; HighField the
	// reference spectrometer.
	LowField  *nmrsim.Instrument
	HighField *nmrsim.Instrument

	components []*ihm.ComponentModel
	augmenter  *nmrsim.Augmenter
	analyzer   *ihm.MixtureAnalyzer

	cnn  *toolflow.Result
	lstm *toolflow.Result
}

// NewNMRPipeline returns a pipeline with fresh virtual instruments.
func NewNMRPipeline(cfg NMRConfig) *NMRPipeline {
	c := cfg.withDefaults()
	return &NMRPipeline{
		cfg:       c,
		LowField:  nmrsim.NewLowField(c.Seed + 10),
		HighField: nmrsim.NewHighField(c.Seed + 11),
	}
}

// FitComponents measures each pure component on the low-field instrument
// and fits IHM hard models — the machine-assisted model building step.
func (p *NMRPipeline) FitComponents() error {
	var comps []*ihm.ComponentModel
	for j := 0; j < nmrsim.NumComponents; j++ {
		s, err := p.LowField.MeasurePure(j)
		if err != nil {
			return err
		}
		c, err := ihm.FitPureComponent(nmrsim.ComponentNames[j], s, p.cfg.MaxPureFitPeaks)
		if err != nil {
			return fmt.Errorf("core: fitting %s: %w", nmrsim.ComponentNames[j], err)
		}
		comps = append(comps, c)
	}
	p.components = comps
	an, err := ihm.NewMixtureAnalyzer(comps, ihm.AnalyzerOptions{MaxShift: 0.03, WidthRange: 0.4})
	if err != nil {
		return err
	}
	p.analyzer = an
	p.augmenter = &nmrsim.Augmenter{
		Axis:           p.LowField.Axis,
		Components:     comps,
		ConcLo:         []float64{0, 0, 0, 0},
		ConcHi:         []float64{0.6, 0.6, 0.6, 0.5},
		ShiftJitter:    p.LowField.ShiftJitter,
		WidthJitter:    p.LowField.WidthJitter,
		NoiseSigma:     p.LowField.NoiseSigma,
		IntensityScale: p.LowField.IntensityScale,
		Workers:        p.cfg.Workers,
	}
	return nil
}

// Components returns the fitted hard models.
func (p *NMRPipeline) Components() []*ihm.ComponentModel { return p.components }

// Augmenter returns the configured synthetic-spectra generator.
func (p *NMRPipeline) Augmenter() *nmrsim.Augmenter { return p.augmenter }

// TrainCNN generates the synthetic corpus and trains the paper's
// 10 532-parameter locally connected CNN, validating against measured
// campaign data (valX/valY from a reactor campaign). verbose may be nil.
func (p *NMRPipeline) TrainCNN(val *dataset.Dataset, verbose io.Writer) (*toolflow.Result, error) {
	if p.augmenter == nil {
		return nil, fmt.Errorf("core: FitComponents before TrainCNN")
	}
	spec := toolflow.NMRCNNSpec(p.LowField.Axis.N, nmrsim.NumComponents,
		p.cfg.Epochs, p.cfg.BatchSize, p.cfg.Seed)
	spec.Workers = p.cfg.Workers
	runner := &toolflow.Runner{Verbose: verbose}
	if p.cfg.Stream {
		src, err := p.augmenter.TrainingStream(p.cfg.TrainSamples, p.cfg.Seed+20)
		if err != nil {
			return nil, err
		}
		// Replay d.Shuffle(rng.New(Seed+21)) as an index permutation so the
		// streamed epoch order matches the materialized path bit for bit.
		perm := dataset.ShuffledIndices(p.cfg.TrainSamples, rng.New(p.cfg.Seed+21))
		train, err := dataset.Select(src, perm)
		if err != nil {
			return nil, err
		}
		spec.Checkpoint = p.cfg.Checkpoint
		res, err := runner.TrainSource(spec, train, val)
		if err != nil {
			return nil, err
		}
		p.cnn = res
		return res, nil
	}
	d, err := p.augmenter.Generate(p.cfg.TrainSamples, p.cfg.Seed+20)
	if err != nil {
		return nil, err
	}
	d.Shuffle(rng.New(p.cfg.Seed + 21))
	res, err := runner.Train(spec, d, val)
	if err != nil {
		return nil, err
	}
	p.cnn = res
	return res, nil
}

// TrainLSTM generates the plateau time-series corpus and trains the
// paper's 221 956-parameter LSTM model. verbose may be nil.
func (p *NMRPipeline) TrainLSTM(val *dataset.Dataset, verbose io.Writer) (*toolflow.Result, error) {
	if p.augmenter == nil {
		return nil, fmt.Errorf("core: FitComponents before TrainLSTM")
	}
	spec := toolflow.NMRLSTMSpec(p.cfg.Steps, p.LowField.Axis.N, nmrsim.NumComponents,
		p.cfg.Epochs, p.cfg.BatchSize, p.cfg.Seed)
	spec.Workers = p.cfg.Workers
	runner := &toolflow.Runner{Verbose: verbose}
	if p.cfg.Stream {
		src, err := p.augmenter.TimeSeriesStream(p.cfg.Windows, p.cfg.Steps, p.cfg.MaxRepeat, p.cfg.Seed+30)
		if err != nil {
			return nil, err
		}
		// Replay d.Shuffle(rng.New(Seed+31)) as an index permutation so the
		// streamed epoch order matches the materialized path bit for bit.
		perm := dataset.ShuffledIndices(p.cfg.Windows, rng.New(p.cfg.Seed+31))
		train, err := dataset.Select(src, perm)
		if err != nil {
			return nil, err
		}
		spec.Checkpoint = p.cfg.LSTMCheckpoint
		res, err := runner.TrainSource(spec, train, val)
		if err != nil {
			return nil, err
		}
		p.lstm = res
		return res, nil
	}
	d, err := p.augmenter.GenerateTimeSeries(p.cfg.Windows, p.cfg.Steps, p.cfg.MaxRepeat, p.cfg.Seed+30)
	if err != nil {
		return nil, err
	}
	d.Shuffle(rng.New(p.cfg.Seed + 31))
	res, err := runner.Train(spec, d, val)
	if err != nil {
		return nil, err
	}
	p.lstm = res
	return res, nil
}

// CNN returns the trained CNN record, or nil.
func (p *NMRPipeline) CNN() *toolflow.Result { return p.cnn }

// LSTM returns the trained LSTM record, or nil.
func (p *NMRPipeline) LSTM() *toolflow.Result { return p.lstm }

// AnalyzeIHM runs the classical IHM mixture analysis on one spectrum and
// reports the estimated concentrations (instrument-gain corrected) plus
// the wall-clock analysis latency — the baseline the networks are compared
// against.
func (p *NMRPipeline) AnalyzeIHM(s *spectrum.Spectrum) ([]float64, time.Duration, error) {
	if p.analyzer == nil {
		return nil, 0, fmt.Errorf("core: FitComponents before AnalyzeIHM")
	}
	start := time.Now()
	res, err := p.analyzer.Analyze(s)
	elapsed := time.Since(start)
	if err != nil {
		return nil, elapsed, err
	}
	// weights are in receiver-gain units; undo the instrument scale so they
	// are comparable to the concentration labels
	conc := make([]float64, len(res.Weights))
	for j, w := range res.Weights {
		conc[j] = w / p.LowField.IntensityScale
	}
	return conc, elapsed, nil
}

// PredictCNN runs the trained CNN on one spectrum, returning predictions
// and inference latency.
func (p *NMRPipeline) PredictCNN(s *spectrum.Spectrum) ([]float64, time.Duration, error) {
	if p.cnn == nil {
		return nil, 0, fmt.Errorf("core: TrainCNN before PredictCNN")
	}
	start := time.Now()
	out := p.cnn.Model.Predict(s.Intensities)
	return out, time.Since(start), nil
}
