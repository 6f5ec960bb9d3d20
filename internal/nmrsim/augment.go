package nmrsim

import (
	"fmt"
	"slices"
	"time"

	"specml/internal/dataset"
	"specml/internal/ihm"
	"specml/internal/obs"
	"specml/internal/parallel"
	"specml/internal/rng"
	"specml/internal/spectrum"
	"specml/internal/spectrum/render"
)

// corpusGenBuckets spans 1ms..~2m of corpus-generation wall clock; the
// family is shared with msim (label source distinguishes the generators).
var corpusGenBuckets = obs.ExponentialBuckets(1e-3, 2, 18)

// Augmenter generates synthetic training spectra from fitted IHM
// pure-component models: linear combinations with random concentrations
// plus the physically motivated distortions (peak shift and broadening)
// that a naive linear combination of measured spectra would miss. This is
// the paper's central data-augmentation method for NMR.
//
// Rendering goes through the render-engine templates built once per
// component (see internal/spectrum/render): pure-shift variants are
// interpolated master-grid lookups and broadened variants use the hoisted
// analytic kernels; noise is drawn with the ziggurat sampler
// (rng.Source.FastNormalAdd). Templates and scratch live on the Augmenter,
// so an Augmenter must not be used from multiple goroutines concurrently —
// Generate's internal worker pool is fine, concurrent Generate calls on one
// Augmenter are not.
type Augmenter struct {
	Axis spectrum.Axis
	// Components are the fitted pure-component hard models (label order).
	Components []*ihm.ComponentModel
	// ConcLo/ConcHi bound the sampled concentration of each component; the
	// training corpus covers "the full concentration range of interest".
	ConcLo, ConcHi []float64
	// ShiftJitter and WidthJitter are the distortion magnitudes (per
	// component, per spectrum).
	ShiftJitter float64
	WidthJitter float64
	// NoiseSigma is the additive noise level of the synthetic spectra.
	NoiseSigma float64
	// IntensityScale matches the instrument's receiver gain.
	IntensityScale float64
	// Workers is the generation worker count for Generate (0 = all
	// cores). The corpus is bit-identical for any value because every
	// sample draws from its own index-keyed child stream.
	Workers int
	// Metrics, when non-nil, receives corpus-generation throughput from
	// Generate/GenerateInto: specml_corpus_samples_total{source="nmrsim"}
	// and a wall-clock specml_corpus_generate_seconds histogram. Recording
	// happens once per generation call, never per sample.
	Metrics *obs.Registry

	// Cached render templates (one per component), the axis and the
	// component names and peak values they were built from, plus reusable
	// generation scratch.
	templates []*render.Template
	tmplAxis  spectrum.Axis
	tmplPeaks [][]spectrum.Peak
	names     []string
	seeds     []uint64
	srcs      []*rng.Source
	root      rng.Source
}

// Validate checks the augmenter configuration.
func (a *Augmenter) Validate() error {
	k := len(a.Components)
	if k == 0 {
		return fmt.Errorf("nmrsim: augmenter needs components")
	}
	if len(a.ConcLo) != k || len(a.ConcHi) != k {
		return fmt.Errorf("nmrsim: concentration bounds must match %d components", k)
	}
	for j := range a.ConcLo {
		if a.ConcLo[j] < 0 || a.ConcHi[j] < a.ConcLo[j] {
			return fmt.Errorf("nmrsim: invalid concentration range [%g, %g] for component %d",
				a.ConcLo[j], a.ConcHi[j], j)
		}
	}
	if a.IntensityScale <= 0 {
		return fmt.Errorf("nmrsim: IntensityScale must be positive")
	}
	return nil
}

// prepare (re)builds the per-component render templates whenever the
// axis or any component's name or peaks differ from those the cached
// templates were built from. It must run before any parallel wave so the
// templates are constructed deterministically and the wave itself only
// reads them.
func (a *Augmenter) prepare() error {
	if a.templatesCurrent() {
		return nil
	}
	ts := make([]*render.Template, len(a.Components))
	peaks := make([][]spectrum.Peak, len(a.Components))
	for j, c := range a.Components {
		t, err := render.NewTemplate(a.Axis, c.Peaks)
		if err != nil {
			return fmt.Errorf("nmrsim: building render template for %s: %w", c.Name, err)
		}
		ts[j] = t
		peaks[j] = slices.Clone(c.Peaks)
	}
	a.templates, a.tmplAxis, a.tmplPeaks = ts, a.Axis, peaks
	a.names = componentNames(a.Components)
	return nil
}

// templatesCurrent reports whether the cached templates were built from
// the current axis and the current components' names and peak values.
func (a *Augmenter) templatesCurrent() bool {
	if a.templates == nil || len(a.templates) != len(a.Components) || a.tmplAxis != a.Axis {
		return false
	}
	for j, c := range a.Components {
		if c.Name != a.names[j] || !slices.Equal(c.Peaks, a.tmplPeaks[j]) {
			return false
		}
	}
	return true
}

// Sample renders one synthetic spectrum with random concentrations,
// returning the input vector and its label.
func (a *Augmenter) Sample(src *rng.Source) ([]float64, []float64, error) {
	x := make([]float64, a.Axis.N)
	y := make([]float64, len(a.Components))
	if err := a.SampleInto(x, y, src); err != nil {
		return nil, nil, err
	}
	return x, y, nil
}

// SampleInto renders one synthetic spectrum into caller-owned buffers:
// x (length Axis.N) receives the spectrum, y (one slot per component) the
// concentration label. The draw sequence matches Sample exactly.
func (a *Augmenter) SampleInto(x, y []float64, src *rng.Source) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if err := a.prepare(); err != nil {
		return err
	}
	return a.sampleInto(x, y, src)
}

// sampleInto is SampleInto after validation and template preparation.
func (a *Augmenter) sampleInto(x, y []float64, src *rng.Source) error {
	if len(y) != len(a.Components) {
		return fmt.Errorf("nmrsim: label buffer has %d slots for %d components", len(y), len(a.Components))
	}
	for j := range y {
		y[j] = src.Uniform(a.ConcLo[j], a.ConcHi[j])
	}
	return a.renderConcInto(x, y, src)
}

// renderConcInto renders one spectrum at fixed concentrations into x,
// drawing fresh per-component distortions and noise from src.
func (a *Augmenter) renderConcInto(x, conc []float64, src *rng.Source) error {
	if len(x) != a.Axis.N {
		return fmt.Errorf("nmrsim: spectrum buffer has %d samples for axis length %d", len(x), a.Axis.N)
	}
	for i := range x {
		x[i] = 0
	}
	for j := range a.Components {
		if conc[j] == 0 {
			continue
		}
		shift := src.Normal(0, a.ShiftJitter)
		wf := 1 + src.Normal(0, a.WidthJitter)
		if wf < 0.2 {
			wf = 0.2
		}
		if err := a.templates[j].RenderInto(x, conc[j]*a.IntensityScale, shift, wf); err != nil {
			return err
		}
	}
	if a.NoiseSigma > 0 {
		src.FastNormalAdd(x, a.NoiseSigma)
	}
	return nil
}

// Generate produces n synthetic labelled spectra on a.Workers goroutines
// (0 = all cores). Sample i is rendered from an rng.Split-derived child
// stream keyed by i, so the dataset is bit-identical for any worker count.
func (a *Augmenter) Generate(n int, seed uint64) (*dataset.Dataset, error) {
	d := dataset.New(n)
	if err := a.GenerateInto(d, n, seed); err != nil {
		return nil, err
	}
	return d, nil
}

// GenerateInto is Generate writing into an existing dataset, reusing its
// row storage (grow-only): after the first call, steady-state regeneration
// performs zero heap allocation per sample. The dataset's previous rows are
// overwritten, so d must not share rows with data the caller still needs.
// The generated values are bit-identical to Generate's for equal arguments.
// Generation runs under a pprof "corpus-nmrsim" stage label (inherited by
// the parallel workers) and, when a.Metrics is set, reports samples and
// duration through the registry.
func (a *Augmenter) GenerateInto(d *dataset.Dataset, n int, seed uint64) error {
	start := time.Now()
	err := obs.WithStage("corpus-nmrsim", func() error {
		return a.generateInto(d, n, seed)
	})
	if a.Metrics != nil && err == nil {
		a.Metrics.Counter("specml_corpus_samples_total",
			"Simulated training samples generated.", obs.L("source", "nmrsim")).Add(uint64(n))
		a.Metrics.Histogram("specml_corpus_generate_seconds",
			"Wall-clock duration of one corpus generation call.", corpusGenBuckets,
			obs.L("source", "nmrsim")).ObserveSince(start)
	}
	return err
}

func (a *Augmenter) generateInto(d *dataset.Dataset, n int, seed uint64) error {
	if err := a.Validate(); err != nil {
		return err
	}
	if n <= 0 {
		return fmt.Errorf("nmrsim: need a positive sample count, got %d", n)
	}
	// Templates are built deterministically before the parallel wave; the
	// wave itself only reads them.
	if err := a.prepare(); err != nil {
		return err
	}
	d.Resize(n, a.Axis.N, len(a.Components))
	d.Names = a.names

	// Child-stream seeds are drawn sequentially from the root (the Split
	// construction), so sample i's stream never depends on scheduling.
	a.root.Reseed(seed)
	a.seeds = growUint64(a.seeds, n)
	for i := range a.seeds {
		a.seeds[i] = a.root.Uint64()
	}
	workers := parallel.Resolve(a.Workers)
	if workers > n {
		workers = n
	}
	for len(a.srcs) < workers {
		a.srcs = append(a.srcs, rng.New(0))
	}
	seeds, srcs := a.seeds, a.srcs
	return parallel.For(workers, n, func(w, i int) error {
		// Reseeding a per-worker source reproduces rng.New(seeds[i])
		// without allocating; the stream depends only on i.
		src := srcs[w]
		src.Reseed(seeds[i])
		return a.sampleInto(d.X[i], d.Y[i], src)
	})
}

// growUint64 is pool.Grow for seed scratch.
func growUint64(buf []uint64, n int) []uint64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	c := 1
	for c < n {
		c <<= 1
	}
	return make([]uint64, n, c)
}

// GenerateTimeSeries produces synthetic plateau time series for LSTM
// training: random compositions are repeated 1 to maxRepeat times "to
// emulate plateaus with jumps between them", then windows of `steps`
// consecutive spectra become one sample whose label is the concentration
// at the window end.
//
// Unlike Generate, the window stream is an order-dependent rolling buffer
// (each window overlaps its predecessor), so this path stays sequential;
// Workers does not apply here. Spectrum rows are rendered into a reused
// ring of `steps` buffers — only the emitted windows and their label
// copies allocate.
func (a *Augmenter) GenerateTimeSeries(nWindows, steps, maxRepeat int, seed uint64) (*dataset.Dataset, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	if nWindows <= 0 || steps <= 0 || maxRepeat <= 0 {
		return nil, fmt.Errorf("nmrsim: nWindows, steps and maxRepeat must be positive")
	}
	if err := a.prepare(); err != nil {
		return nil, err
	}
	src := rng.New(seed)
	d := dataset.New(nWindows)
	d.Names = componentNames(a.Components)

	// ring of reusable spectrum rows emulating the online stream: a window
	// copies its rows on emission, so slot t may be overwritten once it is
	// `steps` spectra old
	ring := make([][]float64, steps)
	for i := range ring {
		ring[i] = make([]float64, a.Axis.N)
	}
	conc := make([]float64, len(a.Components))
	count := 0
	for d.Len() < nWindows {
		row := ring[count%steps]
		if err := a.sampleInto(row, conc, src); err != nil {
			return nil, err
		}
		repeat := 1 + src.Intn(maxRepeat)
		for r := 0; r < repeat; r++ {
			if r > 0 {
				// re-measure the same plateau (new jitter and noise)
				row = ring[count%steps]
				if err := a.renderConcInto(row, conc, src); err != nil {
					return nil, err
				}
			}
			count++
			if count >= steps {
				window := make([]float64, 0, steps*a.Axis.N)
				for t := count - steps; t < count; t++ {
					window = append(window, ring[t%steps]...)
				}
				d.Append(window, append([]float64(nil), conc...))
				if d.Len() >= nWindows {
					return d, nil
				}
			}
		}
	}
	return d, nil
}

func componentNames(cs []*ihm.ComponentModel) []string {
	names := make([]string, len(cs))
	for i, c := range cs {
		names[i] = c.Name
	}
	return names
}

// WindowCampaign converts a measured campaign into LSTM evaluation
// windows: each sample is `steps` consecutive spectra, labelled with the
// reference concentrations at the window end.
func WindowCampaign(spectra []*spectrum.Spectrum, labels [][]float64, steps int) (*dataset.Dataset, error) {
	if steps <= 0 {
		return nil, fmt.Errorf("nmrsim: steps must be positive")
	}
	if len(spectra) != len(labels) {
		return nil, fmt.Errorf("nmrsim: %d spectra vs %d labels", len(spectra), len(labels))
	}
	if len(spectra) < steps {
		return nil, fmt.Errorf("nmrsim: %d spectra shorter than window %d", len(spectra), steps)
	}
	d := dataset.New(len(spectra) - steps + 1)
	for end := steps - 1; end < len(spectra); end++ {
		window := make([]float64, 0, steps*spectra[0].Axis.N)
		for k := end - steps + 1; k <= end; k++ {
			window = append(window, spectra[k].Intensities...)
		}
		d.Append(window, labels[end])
	}
	return d, nil
}
