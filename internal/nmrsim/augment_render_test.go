package nmrsim

import (
	"math"
	"testing"

	"specml/internal/dataset"
	"specml/internal/rng"
	"specml/internal/spectrum"
)

// TestAugmenterCachedMatchesExact: the cached render engine must agree
// with an analytic replay to the engine's documented 1e-9 bound. The
// replay redraws each sample from its Split seed in the augmenter's draw
// order (labels, then shift and width jitter per nonzero component) and
// renders it with ihm.ComponentModel.Render, i.e. spectrum.RenderPeaks over
// the full axis. Labels and jitters are drawn before any noise, so the
// labels of the noisy corpus must match the replay bit for bit; the signal
// comparison switches noise off.
func TestAugmenterCachedMatchesExact(t *testing.T) {
	const n, seed = 20, 23
	noisy, err := defaultAugmenter().Generate(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	cached := defaultAugmenter()
	cached.NoiseSigma = 0
	d, err := cached.Generate(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	a := defaultAugmenter()
	root := rng.New(seed)
	for i := 0; i < n; i++ {
		src := rng.New(root.Uint64())
		conc := make([]float64, len(a.Components))
		for j := range conc {
			conc[j] = src.Uniform(a.ConcLo[j], a.ConcHi[j])
			if conc[j] != noisy.Y[i][j] {
				t.Fatalf("label [%d][%d] = %v, replay drew %v", i, j, noisy.Y[i][j], conc[j])
			}
		}
		ref := spectrum.New(a.Axis)
		for j, c := range a.Components {
			if conc[j] == 0 {
				continue
			}
			shift := src.Normal(0, a.ShiftJitter)
			wf := 1 + src.Normal(0, a.WidthJitter)
			if wf < 0.2 {
				wf = 0.2
			}
			if err := c.Render(ref, conc[j]*a.IntensityScale, shift, wf); err != nil {
				t.Fatal(err)
			}
		}
		scale := 0.0
		for _, v := range ref.Intensities {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		for j, want := range ref.Intensities {
			if diff := math.Abs(d.X[i][j] - want); diff > 1e-9*scale {
				t.Fatalf("X[%d][%d]: cached %v vs replay %v (%v relative)",
					i, j, d.X[i][j], want, diff/scale)
			}
		}
	}
}

// TestGenerateIntoReuseBitIdentical: regenerating into a reused dataset
// must be bit-identical to a fresh Generate, including after the reused
// dataset held other content and a different shape.
func TestGenerateIntoReuseBitIdentical(t *testing.T) {
	a := defaultAugmenter()
	want, err := a.Generate(15, 77)
	if err != nil {
		t.Fatal(err)
	}
	b := defaultAugmenter()
	d, err := b.Generate(40, 3) // different size and seed, rows get reused
	if err != nil {
		t.Fatal(err)
	}
	if err := b.GenerateInto(d, 15, 77); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 15 {
		t.Fatalf("reused dataset has %d rows, want 15", d.Len())
	}
	for i := range want.X {
		for j := range want.X[i] {
			if d.X[i][j] != want.X[i][j] {
				t.Fatalf("X[%d][%d] differs after reuse", i, j)
			}
		}
		for j := range want.Y[i] {
			if d.Y[i][j] != want.Y[i][j] {
				t.Fatalf("Y[%d][%d] differs after reuse", i, j)
			}
		}
	}
}

// TestGenerateIntoAllocs pins the zero-alloc steady state: after warm-up,
// regenerating a corpus into a reused dataset allocates a small constant
// number of objects per call (the worker closure), independent of the
// sample count — i.e. zero heap allocations per sample.
func TestGenerateIntoAllocs(t *testing.T) {
	a := defaultAugmenter()
	a.Workers = 1 // sequential path; AllocsPerRun cannot attribute other goroutines' allocs
	allocsFor := func(n int) float64 {
		d := dataset.New(n)
		if err := a.GenerateInto(d, n, 9); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if err := a.GenerateInto(d, n, 9); err != nil {
				t.Fatal(err)
			}
		})
	}
	small := allocsFor(8)
	large := allocsFor(32)
	if small > 4 {
		t.Fatalf("steady-state GenerateInto allocates %v objects per call, want ≤ 4", small)
	}
	if large > small {
		t.Fatalf("allocations grow with sample count: %v at n=8 vs %v at n=32 — not zero per sample",
			small, large)
	}
}

// TestSampleIntoMatchesSample: the buffer-reusing sampler must draw the
// same stream and produce the same values as the allocating one.
func TestSampleIntoMatchesSample(t *testing.T) {
	a := defaultAugmenter()
	src := rng.New(13)
	x1, y1, err := a.Sample(src)
	if err != nil {
		t.Fatal(err)
	}
	src.Reseed(13)
	x2 := make([]float64, a.Axis.N)
	y2 := make([]float64, len(a.Components))
	if err := a.SampleInto(x2, y2, src); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("sample %d differs between Sample and SampleInto", i)
		}
	}
	for j := range y1 {
		if y1[j] != y2[j] {
			t.Fatalf("label %d differs between Sample and SampleInto", j)
		}
	}
	if err := a.SampleInto(make([]float64, 3), y2, src); err == nil {
		t.Fatal("short spectrum buffer must error")
	}
	if err := a.SampleInto(x2, make([]float64, 1), src); err == nil {
		t.Fatal("short label buffer must error")
	}
}

// TestTimeSeriesDeterministicAndUnaliased: the ring-buffer time-series
// generator must stay deterministic, and emitted windows/labels must own
// their storage (the ring is reused, the outputs must not be).
func TestTimeSeriesDeterministicAndUnaliased(t *testing.T) {
	a := defaultAugmenter()
	d1, err := a.GenerateTimeSeries(10, 4, 3, 19)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := defaultAugmenter().GenerateTimeSeries(10, 4, 3, 19)
	if err != nil {
		t.Fatal(err)
	}
	for i := range d1.X {
		for j := range d1.X[i] {
			if d1.X[i][j] != d2.X[i][j] {
				t.Fatalf("window [%d][%d] not deterministic", i, j)
			}
		}
	}
	// mutate one window; no other window may change (ring rows are copied
	// on emission)
	probe := d1.X[1][0]
	d1.X[0][0] = probe + 1e9
	if d1.X[1][0] != probe {
		t.Fatal("windows alias the reused ring storage")
	}
	y0 := d1.Y[0][0]
	d1.Y[1][0] = y0 + 1e9
	if d1.Y[0][0] != y0 {
		t.Fatal("labels alias shared storage")
	}
}

// TestAugmenterRebuildsStaleTemplates: reconfiguring a live Augmenter after
// a Generate — swapping two components, editing a peak in place, or
// changing the axis — must render exactly what a fresh Augmenter with the
// same fields renders, never the templates cached for the old fields.
func TestAugmenterRebuildsStaleTemplates(t *testing.T) {
	for _, tc := range []struct {
		name   string
		modify func(a *Augmenter)
	}{
		{"swap components", func(a *Augmenter) {
			a.Components[0], a.Components[2] = a.Components[2], a.Components[0]
		}},
		{"edit peak in place", func(a *Augmenter) { a.Components[1].Peaks[0].Center += 0.05 }},
		{"shorter axis", func(a *Augmenter) { a.Axis.N -= 7 }},
	} {
		live := defaultAugmenter()
		if _, err := live.Generate(5, 1); err != nil {
			t.Fatal(err)
		}
		tc.modify(live)
		got, err := live.Generate(12, 31)
		if err != nil {
			t.Fatal(err)
		}
		fresh := defaultAugmenter()
		tc.modify(fresh)
		want, err := fresh.Generate(12, 31)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Names {
			if got.Names[i] != want.Names[i] {
				t.Fatalf("%s: label name %d = %q, fresh augmenter has %q", tc.name, i, got.Names[i], want.Names[i])
			}
		}
		for i := range want.X {
			if len(got.X[i]) != len(want.X[i]) {
				t.Fatalf("%s: row %d has %d points, want %d", tc.name, i, len(got.X[i]), len(want.X[i]))
			}
			for j := range want.X[i] {
				if math.Float64bits(got.X[i][j]) != math.Float64bits(want.X[i][j]) {
					t.Fatalf("%s: X[%d][%d] = %v, fresh augmenter renders %v", tc.name, i, j, got.X[i][j], want.X[i][j])
				}
			}
		}
	}
}
