package rng

import "math"

// The ziggurat method (Marsaglia & Tsang, 2000) draws a standard-normal
// variate with, in ~98.8% of draws, a single 32-bit uniform, one table
// compare and one multiply — roughly 5× cheaper than the Box-Muller
// transform, whose log/sqrt/sincos dominate noise-heavy generation loops.
// The 128-layer tables are built once at package init from the published
// construction, so the stream is fully deterministic and stable across Go
// releases (nothing is drawn from the stdlib).
//
// FastNormal is a *different stream* than Normal for the same Source state:
// a path that switches from Normal to FastNormal keeps determinism and
// per-seed reproducibility but changes the bytes it draws, so a corpus
// pinned by digest must stay on the sampler it was recorded with.

const (
	zigR = 3.442619855899      // start of the normal tail
	zigV = 9.91256303526217e-3 // area of each layer
	zigM = 1 << 31             // scale of the 32-bit integer grid
)

var (
	zigK [128]uint32  // acceptance thresholds on the integer grid
	zigW [128]float64 // layer x-scale per integer unit
	zigF [128]float64 // f(x) at the layer boundaries
)

func init() {
	dn, tn := zigR, zigR
	q := zigV / math.Exp(-0.5*dn*dn)
	zigK[0] = uint32(dn / q * zigM)
	zigK[1] = 0
	zigW[0] = q / zigM
	zigW[127] = dn / zigM
	zigF[0] = 1
	zigF[127] = math.Exp(-0.5 * dn * dn)
	for i := 126; i >= 1; i-- {
		dn = math.Sqrt(-2 * math.Log(zigV/dn+math.Exp(-0.5*dn*dn)))
		zigK[i+1] = uint32(dn / tn * zigM)
		tn = dn
		zigF[i] = math.Exp(-0.5 * dn * dn)
		zigW[i] = dn / zigM
	}
}

// FastNormal returns a normally distributed value with the given mean and
// standard deviation via the ziggurat method. See the package comment above
// on how it relates to Normal.
func (s *Source) FastNormal(mean, stddev float64) float64 {
	return mean + stddev*s.fastStdNormal()
}

// FastNormalAdd adds independent N(0, stddev) noise to every element of x,
// drawing exactly the same stream as len(x) successive FastNormal(0, stddev)
// calls. The rectangle-accept fast path (~98.8% of draws) is written out in
// the loop body so no function call is paid for it.
func (s *Source) FastNormalAdd(x []float64, stddev float64) {
	for k := range x {
		j := int32(uint32(s.Uint64() >> 32))
		i := j & 127
		a := uint32(j)
		if j < 0 {
			a = uint32(-int64(j))
		}
		if a < zigK[i] {
			x[k] += stddev * (float64(j) * zigW[i])
			continue
		}
		x[k] += stddev * s.zigSlow(j)
	}
}

// fastStdNormal draws a standard-normal variate with the ziggurat method.
func (s *Source) fastStdNormal() float64 {
	j := int32(uint32(s.Uint64() >> 32))
	i := j & 127
	a := uint32(j)
	if j < 0 {
		a = uint32(-int64(j))
	}
	if a < zigK[i] {
		// inside the layer rectangle: the overwhelmingly common case
		return float64(j) * zigW[i]
	}
	return s.zigSlow(j)
}

// zigSlow resolves a draw whose 32-bit sample j fell outside the layer
// rectangle: the unbounded tail for layer 0, the wedge accept/reject test
// otherwise, retrying with fresh draws until one is accepted.
func (s *Source) zigSlow(j int32) float64 {
	for {
		i := j & 127
		x := float64(j) * zigW[i]
		if i == 0 {
			// the unbounded tail beyond zigR
			for {
				xt := -math.Log(s.nonZeroFloat64()) / zigR
				yt := -math.Log(s.nonZeroFloat64())
				if yt+yt >= xt*xt {
					if j > 0 {
						return zigR + xt
					}
					return -(zigR + xt)
				}
			}
		}
		// wedge between the layer rectangle and the density
		if zigF[i]+s.Float64()*(zigF[i-1]-zigF[i]) < math.Exp(-0.5*x*x) {
			return x
		}
		// rejected: start over with a fresh 32-bit sample
		j = int32(uint32(s.Uint64() >> 32))
		i = j & 127
		a := uint32(j)
		if j < 0 {
			a = uint32(-int64(j))
		}
		if a < zigK[i] {
			return float64(j) * zigW[i]
		}
	}
}

// nonZeroFloat64 returns a uniform value in (0,1).
func (s *Source) nonZeroFloat64() float64 {
	for {
		if u := s.Float64(); u != 0 {
			return u
		}
	}
}
