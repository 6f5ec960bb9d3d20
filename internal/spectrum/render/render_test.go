package render

import (
	"math"
	"testing"

	"specml/internal/rng"
	"specml/internal/spectrum"
)

// fig7Axis is a Fig. 7-scale target axis: the NMR experiments render onto
// 1700 points and the MS experiments onto 199, so 1200 points at NMR-like
// resolution exercises the same regime the paper's figures are built from.
func fig7Axis() spectrum.Axis {
	return spectrum.MustAxis(0, 0.01, 1200)
}

// randomPeaks draws a plausible multi-peak component: centers in the axis
// interior, widths spanning narrow to broad, mixed Gaussian/Lorentzian
// character.
func randomPeaks(src *rng.Source, k int) []spectrum.Peak {
	peaks := make([]spectrum.Peak, k)
	for i := range peaks {
		peaks[i] = spectrum.Peak{
			Center: src.Uniform(2, 10),
			Width:  src.Uniform(0.04, 0.25),
			Area:   src.Uniform(0.5, 2),
			Eta:    src.Float64(),
		}
	}
	return peaks
}

func maxAbs(x []float64) float64 {
	m := 0.0
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

func maxAbsDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// renderReference renders the distorted profile through
// spectrum.RenderPeaks over the full axis, on peak copies distorted in the
// order ihm.ComponentModel.Render uses (shift center, scale width, scale
// area) — the analytic ground truth every cached path is measured against.
func renderReference(t *testing.T, axis spectrum.Axis, peaks []spectrum.Peak, weight, shift, wf float64) []float64 {
	t.Helper()
	ps := make([]spectrum.Peak, len(peaks))
	for i, p := range peaks {
		p.Center += shift
		p.Width *= wf
		p.Area *= weight
		ps[i] = p
	}
	s := spectrum.New(axis)
	if err := spectrum.RenderPeaks(s, ps, 0); err != nil {
		t.Fatal(err)
	}
	return s.Intensities
}

// TestCachedMatchesExactProperty is the engine's headline accuracy bound:
// across randomized weight/shift/width-factor draws on a Fig. 7-scale axis,
// the cached render paths (master-grid interpolation for pure shifts, the
// hoisted analytic kernel for broadened variants) agree with the exact
// analytic render to better than 1e-9 of the profile maximum.
func TestCachedMatchesExactProperty(t *testing.T) {
	axis := fig7Axis()
	src := rng.New(41)
	dst := make([]float64, axis.N)
	for trial := 0; trial < 40; trial++ {
		peaks := randomPeaks(src, 1+src.Intn(6))
		tmpl, err := NewTemplate(axis, peaks)
		if err != nil {
			t.Fatal(err)
		}
		weight := src.Uniform(0.1, 2)
		shift := src.Uniform(-0.05, 0.05)
		// Half the trials take the pure-shift master-grid path, half the
		// broadened analytic path.
		wf := 1.0
		if trial%2 == 1 {
			wf = src.Uniform(0.5, 1.5)
		}
		if wf == 1 && !tmpl.masterUsable(shift) {
			t.Fatalf("trial %d: shift %g should be inside the default margin", trial, shift)
		}
		if wf == 1 && tmpl.master == nil {
			t.Fatal("cached template did not build a master grid")
		}
		want := renderReference(t, axis, peaks, weight, shift, wf)
		for i := range dst {
			dst[i] = 0
		}
		if err := tmpl.RenderInto(dst, weight, shift, wf); err != nil {
			t.Fatal(err)
		}
		scale := maxAbs(want)
		if diff := maxAbsDiff(dst, want); diff > 1e-9*scale {
			t.Fatalf("trial %d (wf=%g): cached render off by %g (%g relative), want ≤ 1e-9",
				trial, wf, diff, diff/scale)
		}
	}
}

// TestShiftBeyondMarginFallsBack: a shift outside the master-grid margin
// must route to the analytic path and stay accurate.
func TestShiftBeyondMarginFallsBack(t *testing.T) {
	axis := fig7Axis()
	src := rng.New(44)
	peaks := randomPeaks(src, 3)
	tmpl, err := NewTemplate(axis, peaks)
	if err != nil {
		t.Fatal(err)
	}
	const shift = 3.0 // far beyond the default ~0.4 axis-unit margin
	if tmpl.masterUsable(shift) {
		t.Fatal("shift of a quarter axis span should not be inside the margin")
	}
	got := make([]float64, axis.N)
	if err := tmpl.RenderInto(got, 1, shift, 1); err != nil {
		t.Fatal(err)
	}
	want := renderReference(t, axis, peaks, 1, shift, 1)
	scale := maxAbs(want)
	if diff := maxAbsDiff(got, want); diff > 1e-9*scale {
		t.Fatalf("fallback render off by %g relative", diff/scale)
	}
}

// TestRenderIntoAccumulates: RenderInto must add onto existing contents,
// mirroring spectrum.RenderPeaks semantics, on the master-grid path (width
// factor 1) and the analytic path.
func TestRenderIntoAccumulates(t *testing.T) {
	axis := spectrum.MustAxis(0, 0.01, 200)
	peaks := []spectrum.Peak{{Center: 1, Width: 0.1, Area: 1, Eta: 0.5}}
	tmpl, err := NewTemplate(axis, peaks)
	if err != nil {
		t.Fatal(err)
	}
	for _, wf := range []float64{1, 1.1} {
		once := make([]float64, axis.N)
		if err := tmpl.RenderInto(once, 1, 0, wf); err != nil {
			t.Fatal(err)
		}
		twice := make([]float64, axis.N)
		copy(twice, once)
		if err := tmpl.RenderInto(twice, 1, 0, wf); err != nil {
			t.Fatal(err)
		}
		for i := range twice {
			if math.Abs(twice[i]-2*once[i]) > 1e-12 {
				t.Fatalf("wf %g: render does not accumulate at %d", wf, i)
			}
		}
	}
}

// TestRenderSpectrumAxisCheck: Render must reject a mismatched axis.
func TestRenderSpectrumAxisCheck(t *testing.T) {
	axis := spectrum.MustAxis(0, 0.01, 100)
	tmpl, err := NewTemplate(axis,
		[]spectrum.Peak{{Center: 0.5, Width: 0.05, Area: 1}})
	if err != nil {
		t.Fatal(err)
	}
	s := spectrum.New(axis)
	if err := tmpl.Render(s, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	other := spectrum.New(spectrum.MustAxis(0, 0.02, 100))
	if err := tmpl.Render(other, 1, 0, 1); err == nil {
		t.Fatal("mismatched axis must error")
	}
}

func TestTemplateValidation(t *testing.T) {
	axis := spectrum.MustAxis(0, 0.01, 100)
	if _, err := NewTemplate(axis, nil); err == nil {
		t.Fatal("empty peak list must error")
	}
	if _, err := NewTemplate(spectrum.Axis{N: 0, Step: 0.01}, []spectrum.Peak{{Center: 1, Width: 0.1, Area: 1}}); err == nil {
		t.Fatal("degenerate axis must error")
	}
	if _, err := NewTemplate(axis, []spectrum.Peak{{Center: 1, Width: -1, Area: 1}}); err == nil {
		t.Fatal("invalid peak must error")
	}
	tmpl, err := NewTemplate(axis, []spectrum.Peak{{Center: 0.5, Width: 0.05, Area: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tmpl.RenderInto(make([]float64, 7), 1, 0, 1); err == nil {
		t.Fatal("short destination must error")
	}
	if err := tmpl.RenderInto(make([]float64, axis.N), 1, 0, 0); err == nil {
		t.Fatal("zero width factor must error")
	}
	if err := tmpl.RenderInto(make([]float64, axis.N), 1, 0, -0.5); err == nil {
		t.Fatal("negative width factor must error")
	}
}

// TestConcurrentRenderSafe: templates are read-only after construction, so
// concurrent RenderInto calls into distinct destinations must agree with a
// sequential render on the master-grid path (width factor 1) and the
// analytic path (run with -race in CI).
func TestConcurrentRenderSafe(t *testing.T) {
	axis := fig7Axis()
	src := rng.New(45)
	tmpl, err := NewTemplate(axis, randomPeaks(src, 4))
	if err != nil {
		t.Fatal(err)
	}
	for _, wf := range []float64{1, 1.1} {
		want := make([]float64, axis.N)
		if err := tmpl.RenderInto(want, 1, 0.01, wf); err != nil {
			t.Fatal(err)
		}
		const workers = 8
		got := make([][]float64, workers)
		done := make(chan error, workers)
		for w := 0; w < workers; w++ {
			got[w] = make([]float64, axis.N)
			go func(dst []float64) {
				done <- tmpl.RenderInto(dst, 1, 0.01, wf)
			}(got[w])
		}
		for w := 0; w < workers; w++ {
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}
		for w := range got {
			if maxAbsDiff(got[w], want) != 0 {
				t.Fatalf("wf %g: concurrent render %d differs", wf, w)
			}
		}
	}
}

// TestMasterGridBuiltOnFirstUnitWidthRender: the master grid is read only
// by widthFactor == 1 renders, so a template that has rendered only
// broadened variants holds none, and the first unit-width renders, racing
// on one template (run with -race in CI), build it once and agree.
func TestMasterGridBuiltOnFirstUnitWidthRender(t *testing.T) {
	axis := fig7Axis()
	tmpl, err := NewTemplate(axis, randomPeaks(rng.New(46), 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, wf := range []float64{1.1, 0.9} {
		if err := tmpl.RenderInto(make([]float64, axis.N), 1, 0.01, wf); err != nil {
			t.Fatal(err)
		}
	}
	if tmpl.master != nil {
		t.Fatal("broadened renders built the master grid")
	}
	const workers = 8
	got := make([][]float64, workers)
	done := make(chan error, workers)
	for w := range got {
		got[w] = make([]float64, axis.N)
		go func(dst []float64) { done <- tmpl.RenderInto(dst, 1, 0.01, 1) }(got[w])
	}
	for range got {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if tmpl.master == nil {
		t.Fatal("unit-width render did not build the master grid")
	}
	for w := range got {
		if maxAbsDiff(got[w], got[0]) != 0 {
			t.Fatalf("concurrent first render %d differs", w)
		}
	}
}
