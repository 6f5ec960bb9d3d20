package msim

import (
	"fmt"

	"specml/internal/dataset"
	"specml/internal/spectrum"
)

// DefaultAxis is the canonical m/z axis of the virtual prototype:
// m/z 1.0 to 100.0 in steps of 0.5 (199 samples). The instrument's step
// size and range are configurable; networks trained on this axis accept
// other resolutions after spectrum.Resample interpolation.
func DefaultAxis() spectrum.Axis {
	return spectrum.MustAxis(1.0, 0.5, 199)
}

// Preprocess converts a measured spectrum into a network input vector:
// negative (noise) samples are clipped and the vector is normalized to
// unit total intensity, making the input invariant to the absolute signal
// scale.
func Preprocess(s *spectrum.Spectrum) []float64 {
	x := make([]float64, len(s.Intensities))
	preprocessInto(x, s.Intensities)
	return x
}

// preprocessInto is Preprocess of the raw intensities src, writing into
// dst of the same length.
func preprocessInto(dst, src []float64) {
	sum := 0.0
	for i, v := range src {
		if v < 0 {
			v = 0
		}
		dst[i] = v
		sum += v
	}
	if sum > 0 {
		inv := 1 / sum
		for i := range dst {
			dst[i] *= inv
		}
	}
}

// StandardMixtures returns the deterministic reference-mixture table used
// to parameterize the simulator: the paper uses 14 different mixtures per
// characterization run. The first k mixtures are the pure components
// (isolated calibration peaks); the rest are standard blends.
func StandardMixtures(k int) [][]float64 {
	if k <= 0 {
		return nil
	}
	var out [][]float64
	for i := 0; i < k; i++ {
		m := make([]float64, k)
		m[i] = 1
		out = append(out, m)
	}
	// blends: equal parts of all, pairs of neighbours, and a 2:1 ramp
	all := make([]float64, k)
	for i := range all {
		all[i] = 1 / float64(k)
	}
	out = append(out, all)
	for i := 0; i+1 < k && len(out) < 14; i += 2 {
		m := make([]float64, k)
		m[i], m[i+1] = 0.5, 0.5
		out = append(out, m)
	}
	if len(out) < 14 {
		ramp := make([]float64, k)
		total := 0.0
		for i := range ramp {
			ramp[i] = float64(i + 1)
			total += ramp[i]
		}
		for i := range ramp {
			ramp[i] /= total
		}
		out = append(out, ramp)
	}
	for len(out) < 14 {
		m := make([]float64, k)
		m[len(out)%k] = 0.7
		m[(len(out)+1)%k] = 0.3
		out = append(out, m)
	}
	return out[:14]
}

// CollectReferences measures each reference mixture samplesPerMixture
// times on the virtual instrument, returning the characterizer inputs.
// The delivered composition is the setpoint itself (reference gases are
// certified), but the instrument still contaminates and distorts them.
func CollectReferences(vi *VirtualInstrument, sim *LineSimulator, axis spectrum.Axis,
	mixtures [][]float64, samplesPerMixture int) ([]ReferenceSeries, error) {
	if samplesPerMixture <= 0 {
		return nil, fmt.Errorf("msim: samplesPerMixture must be positive, got %d", samplesPerMixture)
	}
	refs := make([]ReferenceSeries, 0, len(mixtures))
	for _, frac := range mixtures {
		ideal, err := sim.Mixture(frac)
		if err != nil {
			return nil, err
		}
		spectra, err := vi.MeasureN(ideal, axis, samplesPerMixture)
		if err != nil {
			return nil, err
		}
		refs = append(refs, ReferenceSeries{Fractions: frac, Spectra: spectra})
	}
	return refs, nil
}

// GenerateTraining produces n simulated, labelled spectra: random mixture
// compositions rendered through the (estimated) instrument model. This is
// the data-augmentation core of the paper — "a sufficient number of
// simulated and labelled measurement series can be generated in minutes".
// alpha controls composition sparsity (see rng.Dirichlet).
//
// Generation runs on `workers` goroutines (0 = all cores). Every sample i
// draws from its own rng.Split-derived child stream keyed by i, so the
// corpus is bit-identical for any worker count: equal (seed, n, alpha)
// always yield equal datasets. Each sample is a fraction-weighted sum of
// per-compound templates rendered once through the instrument model.
func GenerateTraining(sim *LineSimulator, model *InstrumentModel, axis spectrum.Axis,
	n int, alpha float64, seed uint64, workers int) (*dataset.Dataset, error) {
	return GenerateTrainingWith(sim, model, axis, n, alpha, seed, workers, TrainingOptions{})
}

// MeasureEvaluation prepares evaluation data on the virtual prototype: the
// mixer delivers each setpoint (with flow error), the instrument measures
// perMixture spectra, and the labels are the actually delivered fractions.
func MeasureEvaluation(vi *VirtualInstrument, mixer *Mixer, sim *LineSimulator,
	axis spectrum.Axis, setpoints [][]float64, perMixture int) (*dataset.Dataset, error) {
	if perMixture <= 0 {
		return nil, fmt.Errorf("msim: perMixture must be positive, got %d", perMixture)
	}
	d := dataset.New(len(setpoints) * perMixture)
	d.Names = sim.Names()
	for _, sp := range setpoints {
		actual, err := mixer.Mix(sp)
		if err != nil {
			return nil, err
		}
		ideal, err := sim.Mixture(actual)
		if err != nil {
			return nil, err
		}
		spectra, err := vi.MeasureN(ideal, axis, perMixture)
		if err != nil {
			return nil, err
		}
		for _, s := range spectra {
			d.Append(Preprocess(s), actual)
		}
	}
	return d, nil
}
