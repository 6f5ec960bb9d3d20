package render

import (
	"testing"

	"specml/internal/rng"
	"specml/internal/spectrum"
)

func nmrishPeaks() []spectrum.Peak {
	// 14 peaks, eta 0.8, widths ~0.015-0.04 on a 1700-point 10-unit axis
	src := rng.New(2)
	ps := make([]spectrum.Peak, 14)
	for i := range ps {
		ps[i] = spectrum.Peak{Center: src.Uniform(0.5, 9.5), Width: src.Uniform(0.015, 0.04), Area: 1, Eta: 0.8}
	}
	return ps
}

func BenchmarkAnalyticAccum(b *testing.B) {
	axis := spectrum.MustAxis(0, 10.0/1699.0, 1700)
	ps := nmrishPeaks()
	dst := make([]float64, axis.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analyticAccum(dst, axis.Start, axis.Step, ps, 0.03, 0.004, 1.04)
	}
}

func BenchmarkMasterInterp(b *testing.B) {
	axis := spectrum.MustAxis(0, 10.0/1699.0, 1700)
	tmpl, err := NewTemplate(axis, nmrishPeaks())
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]float64, axis.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tmpl.renderMaster(dst, 0.03, 0.004)
	}
}

func BenchmarkNoise1700(b *testing.B) {
	src := rng.New(3)
	dst := make([]float64, 1700)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range dst {
			dst[j] += src.Normal(0, 0.01)
		}
	}
}

func BenchmarkNoise1700Ziggurat(b *testing.B) {
	src := rng.New(3)
	dst := make([]float64, 1700)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.FastNormalAdd(dst, 0.01)
	}
}
