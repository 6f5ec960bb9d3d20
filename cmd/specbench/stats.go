package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// the sample, plus how many samples lie beyond it. A tail percentile is
// only worth reporting when beyond is at least ten.
func percentile(sample []float64, p float64) (value float64, beyond int) {
	if len(sample) == 0 {
		return math.NaN(), 0
	}
	xs := append([]float64(nil), sample...)
	sort.Float64s(xs)
	// The epsilon keeps a rank like 99.9% of 1000 from rounding up past 999.
	rank := int(math.Ceil(p*float64(len(xs))/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(xs) {
		rank = len(xs)
	}
	return xs[rank-1], len(xs) - rank
}

// quartiles returns the first quartile, median and third quartile exactly
// as Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method) computes them, so spreads computed here agree with any script
// that checks them.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// median returns the middle value (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch n := len(d); {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// histTotals reads the (count, sum) of a histogram family from a
// Prometheus text exposition, added up over its series and grouped by the
// value of label ("" puts every series in one group). Reading the
// exposition, as a scraper does, keeps the benchmark independent of the
// family's bucket bounds and of its other labels.
func histTotals(exposition, family, label string) map[string][2]float64 {
	out := make(map[string][2]float64)
	for _, line := range strings.Split(exposition, "\n") {
		var slot int
		var rest string
		switch {
		case strings.HasPrefix(line, family+"_count"):
			slot, rest = 0, line[len(family+"_count"):]
		case strings.HasPrefix(line, family+"_sum"):
			slot, rest = 1, line[len(family+"_sum"):]
		default:
			continue
		}
		if rest == "" || (rest[0] != '{' && rest[0] != ' ') {
			continue // another family sharing the prefix
		}
		i := strings.LastIndexByte(rest, ' ')
		v, err := strconv.ParseFloat(rest[i+1:], 64)
		if err != nil {
			continue
		}
		group := ""
		if label != "" {
			key := label + `="`
			j := strings.Index(rest[:i], key)
			if j < 0 {
				continue
			}
			group = rest[j+len(key):]
			k := strings.IndexByte(group, '"')
			if k < 0 {
				continue
			}
			group = group[:k]
		}
		t := out[group]
		t[slot] += v
		out[group] = t
	}
	return out
}

// cpuTime is the CPU time (user + system) this process has used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler records the peak live heap — the bytes the last collection
// marked live, as runtime/metrics reports them — sampled every 50 ms until
// stopped. Live bytes do not depend on when a collection happens to start,
// so they vary much less from run to run than the heap's high-water mark.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64 // written only by the sampling goroutine until done
}

const liveHeapMetric = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		s := []metrics.Sample{{Name: liveHeapMetric}}
		for {
			metrics.Read(s)
			if s[0].Value.Kind() == metrics.KindUint64 && s[0].Value.Uint64() > h.peak {
				h.peak = s[0].Value.Uint64()
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// stopMiB stops sampling, waits for the sampler to exit and returns the
// peak in MiB.
func (h *heapSampler) stopMiB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
