package msim

import (
	"fmt"
	"math"
	"time"

	"specml/internal/dataset"
	"specml/internal/fit"
	"specml/internal/obs"
	"specml/internal/parallel"
	"specml/internal/rng"
	"specml/internal/spectrum"
)

// TrainingOptions configures GenerateTrainingWith and NewTrainingStream.
type TrainingOptions struct {
	// Metrics, when non-nil, receives corpus-generation throughput:
	// specml_corpus_samples_total{source="msim"} and a wall-clock
	// specml_corpus_generate_seconds histogram. Recording happens once per
	// generation call, never per sample.
	Metrics *obs.Registry
}

// corpusGenBuckets spans 1ms..~2m of corpus-generation wall clock.
var corpusGenBuckets = obs.ExponentialBuckets(1e-3, 2, 18)

// renderCache holds the per-compound instrument-rendered templates on a
// fixed axis. Measurement is linear in the line intensities — attenuation
// and peak width depend only on line position — so the spectrum of any
// mixture is the fraction-weighted sum of the pure-compound templates plus
// the composition-independent background (ignition artifact and baseline).
// The templates carry the analytic Lorentzian tail correction that the
// truncating Measure renderer lacks (values agree to ~1e-4 of the peak
// scale, dominated by that tail).
type renderCache struct {
	comp [][]float64 // pure-compound renders, label order
	bg   []float64   // ignition peak + baseline drift

	noiseFloor, noiseScale float64 // the instrument's noise model
}

// modelPeaks converts one ideal line spectrum into instrument peaks,
// mirroring InstrumentModel.Measure exactly.
func modelPeaks(m *InstrumentModel, ls *spectrum.LineSpectrum) []spectrum.Peak {
	peaks := make([]spectrum.Peak, 0, len(ls.Lines))
	for _, l := range ls.Lines {
		if l.Intensity <= 0 {
			continue
		}
		mz := l.Position + m.MassOffset
		peaks = append(peaks, spectrum.Peak{
			Center: mz,
			Area:   l.Intensity * m.attenuationAt(l.Position),
			Width:  m.fwhmAt(mz),
			Eta:    m.PeakEta,
		})
	}
	return peaks
}

// newRenderCache renders every pure compound and the background through the
// instrument model once. Templates use the tail-corrected renderer, so the
// 12-width cutoff loses no Lorentzian area.
func newRenderCache(sim *LineSimulator, model *InstrumentModel, axis spectrum.Axis) (*renderCache, error) {
	c := &renderCache{
		comp:       make([][]float64, len(sim.pure)),
		noiseFloor: model.NoiseFloor,
		noiseScale: model.NoiseScale,
	}
	for k, ls := range sim.pure {
		s := spectrum.New(axis)
		if err := spectrum.RenderPeaksTailCorrected(s, modelPeaks(model, ls), 12); err != nil {
			return nil, err
		}
		c.comp[k] = s.Intensities
	}
	s := spectrum.New(axis)
	if model.IgnitionArea > 0 {
		peak := []spectrum.Peak{{
			Center: model.IgnitionMZ + model.MassOffset,
			Area:   model.IgnitionArea,
			Width:  model.fwhmAt(model.IgnitionMZ),
			Eta:    model.PeakEta,
		}}
		if err := spectrum.RenderPeaksTailCorrected(s, peak, 12); err != nil {
			return nil, err
		}
	}
	if len(model.Baseline) > 0 {
		for i := range s.Intensities {
			s.Intensities[i] += fit.PolyEval(model.Baseline, axis.Value(i))
		}
	}
	c.bg = s.Intensities
	return c, nil
}

// renderInto draws one sample from src: a Dirichlet(alpha) composition
// into y and its measured, preprocessed spectrum into x. raw (length
// axis.N) is scratch for the unpreprocessed spectrum; nothing allocates.
func (c *renderCache) renderInto(x, y, raw []float64, alpha float64, src *rng.Source) {
	src.Dirichlet(alpha, y)
	copy(raw, c.bg)
	for k, f := range y {
		if f == 0 {
			continue
		}
		tmpl := c.comp[k]
		for j, t := range tmpl {
			raw[j] += f * t
		}
	}
	if c.noiseFloor > 0 || c.noiseScale > 0 {
		for j, v := range raw {
			sigma := c.noiseFloor + c.noiseScale*math.Abs(v)
			raw[j] = v + src.Normal(0, sigma)
		}
	}
	preprocessInto(x, raw)
}

// GenerateTrainingWith is GenerateTraining with explicit options.
func GenerateTrainingWith(sim *LineSimulator, model *InstrumentModel, axis spectrum.Axis,
	n int, alpha float64, seed uint64, workers int, opts TrainingOptions) (*dataset.Dataset, error) {
	d := dataset.New(n)
	if err := GenerateTrainingInto(d, sim, model, axis, n, alpha, seed, workers, opts); err != nil {
		return nil, err
	}
	return d, nil
}

// GenerateTrainingInto is GenerateTrainingWith writing into an existing
// dataset, reusing its row storage (grow-only). Steady-state regeneration
// performs zero heap allocation per sample.
// Generation runs under a pprof "corpus-msim" stage label (inherited by
// the parallel workers) and, when opts.Metrics is set, reports samples and
// duration through the registry.
func GenerateTrainingInto(d *dataset.Dataset, sim *LineSimulator, model *InstrumentModel,
	axis spectrum.Axis, n int, alpha float64, seed uint64, workers int, opts TrainingOptions) error {
	start := time.Now()
	err := obs.WithStage("corpus-msim", func() error {
		return generateTrainingInto(d, sim, model, axis, n, alpha, seed, workers)
	})
	if opts.Metrics != nil && err == nil {
		opts.Metrics.Counter("specml_corpus_samples_total",
			"Simulated training samples generated.", obs.L("source", "msim")).Add(uint64(n))
		opts.Metrics.Histogram("specml_corpus_generate_seconds",
			"Wall-clock duration of one corpus generation call.", corpusGenBuckets,
			obs.L("source", "msim")).ObserveSince(start)
	}
	return err
}

func generateTrainingInto(d *dataset.Dataset, sim *LineSimulator, model *InstrumentModel,
	axis spectrum.Axis, n int, alpha float64, seed uint64, workers int) error {
	if n <= 0 {
		return fmt.Errorf("msim: need a positive sample count, got %d", n)
	}
	if err := model.Validate(); err != nil {
		return err
	}
	d.Resize(n, axis.N, sim.NumCompounds())
	d.Names = sim.Names()

	// Child-stream seeds are drawn sequentially from the root (the Split
	// construction), so sample i's stream never depends on scheduling.
	root := rng.New(seed)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = root.Uint64()
	}

	// Templates are built deterministically before the parallel wave; each
	// worker reuses one raw-spectrum buffer and one reseedable source, so
	// the wave itself does not allocate.
	cache, err := newRenderCache(sim, model, axis)
	if err != nil {
		return err
	}
	nw := parallel.Resolve(workers)
	if nw > n {
		nw = n
	}
	raws := make([][]float64, nw)
	srcs := make([]*rng.Source, nw)
	for w := 0; w < nw; w++ {
		raws[w] = make([]float64, axis.N)
		srcs[w] = rng.New(0)
	}
	return parallel.For(nw, n, func(w, i int) error {
		src := srcs[w]
		src.Reseed(seeds[i])
		cache.renderInto(d.X[i], d.Y[i], raws[w], alpha, src)
		return nil
	})
}
