// Package render is the spectral render engine behind corpus-scale
// synthetic-spectrum generation: it turns a fixed set of pseudo-Voigt peaks
// (an IHM component model, an instrument response) into a Template from
// which every augmented variant — weighted, shifted, broadened — can be
// rendered cheaply and repeatedly into caller-owned buffers.
//
// Two render paths back one Template, selected per call:
//
//   - Master-grid lookup (widthFactor == 1): the undistorted component is
//     rendered once onto an oversampled master grid extended by a shift
//     margin; a shifted variant is then a pure translation, evaluated by
//     4-point cubic interpolation into the grid. Exact for translation
//     because Value(x; c+δ, w) = Value(x−δ; c, w) holds per peak and
//     therefore for the whole profile; the only error is interpolation
//     error, bounded by the oversampling factor, which is chosen from the
//     narrowest peak width. O(points) per render, independent of the peak
//     count.
//   - Hoisted analytic (widthFactor != 1, or a shift beyond the margin):
//     the per-peak affine width identity Value(x; c, w·f) =
//     (1/f)·Value(c + (x−c)/f; c, w) rescales each peak about its own
//     center, so a broadened multi-peak profile is NOT a stretch of the
//     whole template (that would also stretch peak separations). Broadened
//     variants are instead evaluated analytically with all per-peak
//     constants (γ, γ², σ, norms, reciprocal step terms) hoisted out of the
//     inner loops: the Lorentzian part is one division per point over the
//     full axis (keeping its slow tails area-accurate), the Gaussian part a
//     windowed exp over ±4 FWHM (truncation below 1e-19 of the peak
//     height).
//
// Accuracy: both paths match spectrum.RenderPeaks on distorted peak copies
// to better than 1e-9 of the profile maximum across random shift/width
// draws; the property tests pin this bound.
package render

import (
	"fmt"
	"math"
	"sync"

	"specml/internal/spectrum"
)

const (
	// gaussCutWidths bounds the Gaussian evaluation window in FWHM units;
	// exp(-4·ln2·4²) ≈ 5e-20 of the peak height remains beyond it.
	gaussCutWidths = 4.0
	// cubicOversampleFactor converts step/minWidth into the master-grid
	// oversampling: the 4-point Lagrange error is ≤ 2.16·(h/w)⁴ of the
	// peak height, so h ≤ w·(step/minWidth)/360 keeps it near ~1e-10,
	// inside the 1e-9 property bound with ~8× headroom.
	cubicOversampleFactor = 360.0
	// maxOversample and maxMasterSamples bound master-grid memory.
	maxOversample    = 512
	maxMasterSamples = 1 << 22
)

// Template is one component prepared for repeated rendering onto a fixed
// target axis. Apart from the master grid, built once under a sync.Once,
// templates are read-only after construction, so concurrent RenderInto
// calls (into distinct destinations) are safe on every path.
type Template struct {
	axis  spectrum.Axis
	peaks []spectrum.Peak

	// master grid (shift-only path), built by the first render with
	// widthFactor == 1: corpora with width jitter never read it. nil
	// before that and for axes too long to cache.
	masterOnce sync.Once
	master     []float64
	mStart     float64
	mInvStep   float64
	dpos       float64 // master-index increment per target-axis sample
}

// NewTemplate validates the peaks and prepares the cached representation.
// The master grid is deterministic, so which render builds it cannot
// change any output.
func NewTemplate(axis spectrum.Axis, peaks []spectrum.Peak) (*Template, error) {
	if axis.N < 1 || axis.Step <= 0 {
		return nil, fmt.Errorf("render: invalid axis %+v", axis)
	}
	if len(peaks) == 0 {
		return nil, fmt.Errorf("render: template needs at least one peak")
	}
	for _, p := range peaks {
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	t := &Template{
		axis:  axis,
		peaks: append([]spectrum.Peak(nil), peaks...),
	}
	return t, nil
}

// Axis returns the target axis the template renders onto.
func (t *Template) Axis() spectrum.Axis { return t.axis }

// minWidth returns the narrowest peak FWHM.
func (t *Template) minWidth() float64 {
	w := math.Inf(1)
	for _, p := range t.peaks {
		if p.Width < w {
			w = p.Width
		}
	}
	return w
}

// buildMaster renders the undistorted profile onto the oversampled,
// margin-extended master grid used by the shift-only lookup path. The
// shift margin is 2% of the axis span plus four of the narrowest peak
// widths; larger shifts take the analytic path.
func (t *Template) buildMaster() {
	axis := t.axis
	minW := t.minWidth()
	os := int(math.Ceil(cubicOversampleFactor * axis.Step / minW))
	if os < 2 {
		os = 2
	}
	if os > maxOversample {
		os = maxOversample
	}
	margin := 0.02*float64(axis.N)*axis.Step + 4*minW
	mStep := axis.Step / float64(os)
	// guard cells on both sides keep 4-point stencils in range at the
	// extremes of the shift margin
	mStart := axis.Start - margin - 4*mStep
	span := (axis.End() + margin + 4*mStep) - mStart
	mN := int(math.Ceil(span/mStep)) + 1
	for mN > maxMasterSamples && os > 2 {
		os /= 2
		mStep = axis.Step / float64(os)
		mStart = axis.Start - margin - 4*mStep
		span = (axis.End() + margin + 4*mStep) - mStart
		mN = int(math.Ceil(span/mStep)) + 1
	}
	if mN > maxMasterSamples {
		return // axis too long to cache; analytic path handles everything
	}
	t.master = make([]float64, mN)
	t.mStart = mStart
	t.mInvStep = 1 / mStep
	t.dpos = axis.Step * t.mInvStep
	analyticAccum(t.master, mStart, mStep, t.peaks, 1, 0, 1)
}

// RenderInto accumulates weight × the component, shifted by shift along the
// axis with every peak width scaled by widthFactor, onto dst (length
// axis.N). Existing dst contents are preserved, mirroring
// spectrum.RenderPeaks' accumulation semantics.
func (t *Template) RenderInto(dst []float64, weight, shift, widthFactor float64) error {
	if len(dst) != t.axis.N {
		return fmt.Errorf("render: destination length %d does not match axis length %d", len(dst), t.axis.N)
	}
	if widthFactor <= 0 {
		return fmt.Errorf("render: width factor must be positive, got %g", widthFactor)
	}
	if widthFactor == 1 && t.masterUsable(shift) {
		t.renderMaster(dst, weight, shift)
		return nil
	}
	analyticAccum(dst, t.axis.Start, t.axis.Step, t.peaks, weight, shift, widthFactor)
	return nil
}

// Render is RenderInto onto a Spectrum, checking the axis matches.
func (t *Template) Render(s *spectrum.Spectrum, weight, shift, widthFactor float64) error {
	if !s.Axis.Equal(t.axis) {
		return fmt.Errorf("render: spectrum axis %+v does not match template axis %+v", s.Axis, t.axis)
	}
	return t.RenderInto(s.Intensities, weight, shift, widthFactor)
}

// masterUsable reports whether every lookup position of the given shift
// stays inside the master grid with a full interpolation stencil, building
// the grid on first use.
func (t *Template) masterUsable(shift float64) bool {
	t.masterOnce.Do(t.buildMaster)
	if t.master == nil {
		return false
	}
	pos0 := (t.axis.Start - shift - t.mStart) * t.mInvStep
	posEnd := pos0 + float64(t.axis.N-1)*t.dpos
	return pos0 >= 1 && posEnd <= float64(len(t.master)-3)
}

// renderMaster evaluates the shifted profile by interpolation into the
// master grid: dst[i] += weight · T(x_i − shift).
func (t *Template) renderMaster(dst []float64, weight, shift float64) {
	m := t.master
	pos := (t.axis.Start - shift - t.mStart) * t.mInvStep
	for i := range dst {
		p := pos + float64(i)*t.dpos
		j := int(p)
		f := p - float64(j)
		// 4-point Lagrange weights for nodes -1,0,1,2 at parameter f
		fm1 := f - 1
		fm2 := f - 2
		fp1 := f + 1
		w0 := -f * fm1 * fm2 * (1.0 / 6.0)
		w1 := fp1 * fm1 * fm2 * 0.5
		w2 := -fp1 * f * fm2 * 0.5
		w3 := fp1 * f * fm1 * (1.0 / 6.0)
		dst[i] += weight * (w0*m[j-1] + w1*m[j] + w2*m[j+1] + w3*m[j+2])
	}
}

var (
	twoSqrt2Ln2 = 2 * math.Sqrt(2*math.Ln2)
	sqrt2Pi     = math.Sqrt(2 * math.Pi)
)

// analyticAccum is the hoisted analytic kernel shared by the broadened-path
// render and the master-grid build: it accumulates the distorted profile
// onto dst sampled at start + i·step. All per-peak constants are computed
// once per peak; the inner loops are a single division (Lorentzian) or a
// single exp (Gaussian, over its ±gaussCutWidths window) per point.
func analyticAccum(dst []float64, start, step float64, peaks []spectrum.Peak, weight, shift, widthFactor float64) {
	n := len(dst)
	// Lorentzian parts are processed in pairs: n1/A + n2/B is evaluated as
	// (n1·B + n2·A)/(A·B), one division per point per *pair*. The loop is
	// bound by division throughput (the extra multiplies execute under the
	// divider's shadow), so pairing nearly halves the dominant cost. The
	// regrouping perturbs each point by a few ulp — all terms are positive,
	// so there is no cancellation — far inside the 1e-9 render budget.
	var pd0, pg2, pnum float64
	havePending := false
	for _, p := range peaks {
		c := p.Center + shift
		w := p.Width * widthFactor
		area := p.Area * weight
		// Lorentzian part over the full axis: the 1/d² tails decay too
		// slowly to truncate without losing area.
		if la := area * p.Eta; la != 0 {
			gamma := w / 2
			g2 := gamma * gamma
			num := la * gamma / math.Pi
			if havePending {
				lorentzAccumPair(dst, pd0, pg2, pnum, start-c, g2, num, step)
				havePending = false
			} else {
				pd0, pg2, pnum = start-c, g2, num
				havePending = true
			}
		}
		// Gaussian part over a tight window. exp(-d²/2) along a uniform grid
		// is a geometric-like recurrence: v_{i+1} = v_i·m_i with m_{i+1} =
		// m_i·r and constant r, so the whole window costs three exps total.
		// Each step adds ~1 ulp of relative error, giving ~n·eps ≈ 1e-12
		// over the longest windows we render — far inside the 1e-9 budget.
		if ga := area * (1 - p.Eta); ga != 0 {
			sigma := w / twoSqrt2Ln2
			norm := ga / (sigma * sqrt2Pi)
			invSigma := 1 / sigma
			lo := int(math.Ceil((c - gaussCutWidths*w - start) / step))
			hi := int(math.Floor((c + gaussCutWidths*w - start) / step))
			if lo < 0 {
				lo = 0
			}
			if hi > n-1 {
				hi = n - 1
			}
			if lo > hi {
				continue
			}
			ds := step * invSigma
			dLo := (start-c)*invSigma + float64(lo)*ds
			v := norm * math.Exp(-0.5*dLo*dLo)
			m := math.Exp(-dLo*ds - 0.5*ds*ds)
			r := math.Exp(-ds * ds)
			for i := lo; i <= hi; i++ {
				dst[i] += v
				v *= m
				m *= r
			}
		}
	}
	if havePending {
		lorentzAccum(dst, pd0, step, pnum, pg2)
	}
}

// lorentzAccumGeneric is the scalar reference loop for the Lorentzian
// accumulation; the amd64 build dispatches to an AVX2 version that performs
// bit-identical arithmetic four lanes at a time.
func lorentzAccumGeneric(dst []float64, d0, step, num, g2 float64) {
	for i := range dst {
		d := d0 + float64(i)*step
		dst[i] += num / (d*d + g2)
	}
}

// lorentzPairAccumGeneric is the scalar reference for the paired form
// (n1·B + n2·A)/(A·B); the amd64 dispatch runs bit-identical AVX2 lanes.
func lorentzPairAccumGeneric(dst []float64, d01, g21, num1, d02, g22, num2, step float64) {
	for i := range dst {
		t := float64(i) * step
		d1 := d01 + t
		d2 := d02 + t
		a := d1*d1 + g21
		b := d2*d2 + g22
		dst[i] += (num1*b + num2*a) / (a * b)
	}
}
