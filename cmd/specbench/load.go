package main

import (
	"sync"
	"time"

	"specml/internal/rng"
)

// arrival is one request of a load phase.
type arrival struct {
	at    time.Duration // due time from the start of the phase (open loop)
	kind  int           // which model (serve-predict) or session slot (serve-monitor)
	input int           // index into that model's input pool
}

// poissonSchedule draws an open-loop Poisson arrival process of rate
// requests per second lasting d, each arrival with a uniform kind in
// [0, kinds) and a uniform input in [0, inputs). It is a pure function of
// its arguments.
func poissonSchedule(seed uint64, rate float64, d time.Duration, kinds, inputs int) []arrival {
	src := rng.New(seed)
	var out []arrival
	t := 0.0
	for {
		t += src.Exponential(rate)
		at := time.Duration(t * float64(time.Second))
		if at >= d {
			return out
		}
		out = append(out, arrival{at: at, kind: src.Intn(kinds), input: src.Intn(inputs)})
	}
}

// clock is the time source of the open loop; tests substitute a fake one.
type clock interface {
	Now() time.Time
	SleepUntil(t time.Time)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

func (wallClock) SleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// phaseResult is what one load phase measured.
type phaseResult struct {
	latMS  []float64       // per successful request, from its due time
	at     []time.Duration // per successful request, see record
	lateMS []float64       // open loop: how late each send started
	okN    int
	failN  int
	inSLO  int // successful requests within the latency limit
	wall   time.Duration
}

func (p *phaseResult) attempted() int { return p.okN + p.failN }

// openLoop sends every arrival at its due time on its own goroutine, at
// most limit at once, and returns when all have completed. Latency is
// timed from the due time, not the send time, so a stalled generator (or a
// full outstanding limit) charges the stall to every request due during it.
// The semaphore is taken before sleeping, so a request that has to wait for
// a slot is sent late rather than early.
func openLoop(clk clock, start time.Time, sched []arrival, limit int, slo time.Duration, send func(arrival) bool) *phaseResult {
	res := &phaseResult{lateMS: make([]float64, 0, len(sched)), latMS: make([]float64, 0, len(sched))}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, limit)
	for _, a := range sched {
		sem <- struct{}{}
		due := start.Add(a.at)
		clk.SleepUntil(due)
		res.lateMS = append(res.lateMS, durMS(clk.Now().Sub(due)))
		wg.Add(1)
		go func(a arrival, due time.Time) {
			defer wg.Done()
			ok := send(a)
			lat := clk.Now().Sub(due)
			mu.Lock()
			res.record(ok, lat, slo, a.at)
			mu.Unlock()
			<-sem
		}(a, due)
	}
	wg.Wait()
	res.wall = clk.Now().Sub(start)
	return res
}

// record counts one outcome; at is when it belongs in the phase: the due
// time in an open loop, the completion time in a closed one.
func (p *phaseResult) record(ok bool, lat, slo, at time.Duration) {
	if !ok {
		p.failN++
		return
	}
	p.okN++
	p.latMS = append(p.latMS, durMS(lat))
	p.at = append(p.at, at)
	if lat <= slo {
		p.inSLO++
	}
}

// windows groups the successful requests' latencies into consecutive
// windows of width by their time in the phase, over the first span of it.
func (p *phaseResult) windows(width, span time.Duration) [][]float64 {
	n := int(span / width)
	if n < 1 {
		n = 1
	}
	out := make([][]float64, n)
	for i, at := range p.at {
		if k := int(at / width); k < n {
			out[k] = append(out[k], p.latMS[i])
		}
	}
	return out
}

// windowedPercentile is the median, over the phase's windows, of each
// window's p-th percentile latency. A transient stall (a GC cycle, a busy
// neighbour on the host) moves one window, not the result.
func (p *phaseResult) windowedPercentile(pct float64, width, span time.Duration) float64 {
	var per []float64
	for _, w := range p.windows(width, span) {
		if len(w) > 0 {
			v, _ := percentile(w, pct)
			per = append(per, v)
		}
	}
	return median(per)
}

// windowedRate is the median, over the phase's windows, of successful
// completions per second.
func (p *phaseResult) windowedRate(width, span time.Duration) float64 {
	var per []float64
	for _, w := range p.windows(width, span) {
		per = append(per, float64(len(w))/width.Seconds())
	}
	return median(per)
}

// closedLoop runs clients callers that each send their next request as
// soon as the previous one completes, until d has passed. Client c draws
// its requests from its own stream seeded from (seed, c).
func closedLoop(clients int, seed uint64, d time.Duration, slo time.Duration, next func(src *rng.Source) arrival, send func(arrival) bool) *phaseResult {
	res := &phaseResult{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	end := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			src := rng.New(seed ^ uint64(c+1)*0x9e3779b97f4a7c15)
			for time.Now().Before(end) {
				t0 := time.Now()
				ok := send(next(src))
				t1 := time.Now()
				mu.Lock()
				res.record(ok, t1.Sub(t0), slo, t1.Sub(start))
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
