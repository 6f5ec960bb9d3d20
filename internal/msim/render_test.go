package msim

import (
	"math"
	"testing"

	"specml/internal/fit"
	"specml/internal/rng"
	"specml/internal/spectrum"
)

func maxAbs(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// TestCachedTrainingMatchesFullAxisReference: for a noiseless instrument
// the cached generator (fraction-weighted template sums) must match a
// from-scratch full-axis analytic render of the same mixture — the
// tail-corrected templates are the *more* accurate rendering, so they are
// compared against the untruncated ground truth, not the cutoff renderer.
func TestCachedTrainingMatchesFullAxisReference(t *testing.T) {
	sim := taskSim(t)
	model := DefaultTrueModel().Clone()
	model.NoiseFloor, model.NoiseScale = 0, 0
	axis := DefaultAxis()
	d, err := GenerateTrainingWith(sim, model, axis, 8, 1, 31, 1, TrainingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range d.X {
		ideal, err := sim.Mixture(d.Y[i])
		if err != nil {
			t.Fatal(err)
		}
		s := spectrum.New(axis)
		peaks := modelPeaks(model, ideal)
		if model.IgnitionArea > 0 {
			peaks = append(peaks, spectrum.Peak{
				Center: model.IgnitionMZ + model.MassOffset,
				Area:   model.IgnitionArea,
				Width:  model.fwhmAt(model.IgnitionMZ),
				Eta:    model.PeakEta,
			})
		}
		if err := spectrum.RenderPeaks(s, peaks, 0); err != nil {
			t.Fatal(err)
		}
		for j := range s.Intensities {
			s.Intensities[j] += fit.PolyEval(model.Baseline, axis.Value(j))
		}
		want := Preprocess(s)
		scale := maxAbs(want)
		for j := range want {
			if diff := math.Abs(d.X[i][j] - want[j]); diff > 2e-4*scale {
				t.Fatalf("sample %d[%d]: cached %v vs full-axis %v (%v of max)",
					i, j, d.X[i][j], want[j], diff/scale)
			}
		}
	}
}

// TestCachedTrainingAgainstExactOption: the cached corpus must agree with
// the instrument simulator's exact per-sample measurement, replayed here
// from each sample's Split seed: labels drawn by RandomFractions, spectra
// by Mixture + Measure + Preprocess. Labels are bit-identical (same draw
// sequence), and with a noiseless model the spectra agree up to the
// Lorentzian tail intensity that Measure's 12-width cutoff discards. This
// also checks that modelPeaks mirrors Measure.
func TestCachedTrainingAgainstExactOption(t *testing.T) {
	sim := taskSim(t)
	model := DefaultTrueModel().Clone()
	model.NoiseFloor, model.NoiseScale = 0, 0
	axis := DefaultAxis()
	const n, seed = 12, 7
	cached, err := GenerateTrainingWith(sim, model, axis, n, 1, seed, 2, TrainingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	root := rng.New(seed)
	for i := 0; i < n; i++ {
		src := rng.New(root.Uint64())
		frac := sim.RandomFractions(src, 1)
		for j := range frac {
			if cached.Y[i][j] != frac[j] {
				t.Fatalf("label [%d][%d] = %v, replay drew %v", i, j, cached.Y[i][j], frac[j])
			}
		}
		ideal, err := sim.Mixture(frac)
		if err != nil {
			t.Fatal(err)
		}
		s, err := model.Measure(ideal, axis, src)
		if err != nil {
			t.Fatal(err)
		}
		want := Preprocess(s)
		scale := maxAbs(want)
		for j := range want {
			if diff := math.Abs(cached.X[i][j] - want[j]); diff > 1e-2*scale {
				t.Fatalf("X[%d][%d]: cached %v vs measured %v", i, j, cached.X[i][j], want[j])
			}
		}
	}
}

// TestGenerateTrainingIntoReuse: regenerating into a reused dataset must be
// bit-identical to a fresh generation.
func TestGenerateTrainingIntoReuse(t *testing.T) {
	sim := taskSim(t)
	model := DefaultTrueModel()
	axis := DefaultAxis()
	want, err := GenerateTrainingWith(sim, model, axis, 9, 1, 55, 1, TrainingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := GenerateTrainingWith(sim, model, axis, 25, 1, 2, 1, TrainingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := GenerateTrainingInto(d, sim, model, axis, 9, 1, 55, 1, TrainingOptions{}); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 9 {
		t.Fatalf("reused dataset has %d rows, want 9", d.Len())
	}
	for i := range want.X {
		for j := range want.X[i] {
			if d.X[i][j] != want.X[i][j] {
				t.Fatalf("X[%d][%d] differs after reuse", i, j)
			}
		}
	}
}

// TestPreprocessIntoMatchesPreprocess: the in-place variant the corpus
// generators use must agree with the allocating one bit for bit.
func TestPreprocessIntoMatchesPreprocess(t *testing.T) {
	sim := taskSim(t)
	model := DefaultTrueModel()
	ideal, err := sim.Mixture([]float64{0.4, 0.3, 0.1, 0.1, 0.05, 0.05, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	s, err := model.Measure(ideal, DefaultAxis(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := Preprocess(s)
	got := make([]float64, len(s.Intensities))
	preprocessInto(got, s.Intensities)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("sample %d: %v vs %v", i, got[i], want[i])
		}
	}
}
