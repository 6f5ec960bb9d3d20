package main

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestPoissonScheduleIsPureFunctionOfSeed(t *testing.T) {
	const rate, d = 1000.0, 2 * time.Second
	a := poissonSchedule(7, rate, d, 2, 64)
	if b := poissonSchedule(7, rate, d, 2, 64); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonSchedule(8, rate, d, 2, 64); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	// A Poisson count over 2 s at 1000/s has a standard deviation of ~45.
	if n := float64(len(a)); math.Abs(n-rate*d.Seconds()) > 5*math.Sqrt(rate*d.Seconds()) {
		t.Errorf("%v arrivals, want about %v", n, rate*d.Seconds())
	}
	for i, x := range a {
		if x.at < 0 || x.at >= d || (i > 0 && x.at < a[i-1].at) {
			t.Fatalf("arrival %d due at %v: not ascending within [0, %v)", i, x.at, d)
		}
		if x.kind < 0 || x.kind >= 2 || x.input < 0 || x.input >= 64 {
			t.Fatalf("arrival %d out of range: %+v", i, x)
		}
	}
}

// fakeClock advances only when the generator sleeps, and adds a stall of
// the generator itself once it first wakes at or after stallAt.
type fakeClock struct {
	mu      sync.Mutex
	now     time.Time
	stallAt time.Time
	stall   time.Duration
	stalled bool
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) SleepUntil(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if t.After(c.now) {
		c.now = t
	}
	if !c.stalled && !c.now.Before(c.stallAt) {
		c.now = c.now.Add(c.stall)
		c.stalled = true
	}
}

func TestOpenLoopChargesGeneratorStallToLaterRequests(t *testing.T) {
	// Ten requests due 10 ms apart to a system that answers instantly. The
	// generator stalls for 45 ms when it wakes for the fourth request, so
	// that one and the ones due during the stall are sent late, and their
	// latency — timed from the due time — carries the stall.
	start := time.Unix(1000, 0)
	var sched []arrival
	for i := 0; i < 10; i++ {
		sched = append(sched, arrival{at: time.Duration(i) * 10 * time.Millisecond})
	}
	clk := &fakeClock{now: start, stallAt: start.Add(30 * time.Millisecond), stall: 45 * time.Millisecond}
	res := openLoop(clk, start, sched, 1, 20*time.Millisecond, func(arrival) bool { return true })
	want := []float64{0, 0, 0, 45, 35, 25, 15, 5, 0, 0}
	if !reflect.DeepEqual(res.latMS, want) {
		t.Errorf("latency %v, want %v", res.latMS, want)
	}
	if !reflect.DeepEqual(res.lateMS, want) {
		t.Errorf("lateness %v, want %v", res.lateMS, want)
	}
	if res.okN != 10 || res.failN != 0 || res.inSLO != 7 {
		t.Errorf("ok %d failed %d within limit %d, want 10, 0, 7", res.okN, res.failN, res.inSLO)
	}
}

func TestOpenLoopCountsFailuresApart(t *testing.T) {
	start := time.Unix(1000, 0)
	sched := []arrival{{at: 0}, {at: time.Millisecond, input: 1}, {at: 2 * time.Millisecond}}
	res := openLoop(&fakeClock{now: start, stallAt: start.Add(time.Hour)}, start, sched, 1, time.Second,
		func(a arrival) bool { return a.input == 0 })
	if res.okN != 2 || res.failN != 1 || res.attempted() != 3 || len(res.latMS) != 2 {
		t.Errorf("ok %d failed %d latencies %d, want 2, 1, 2", res.okN, res.failN, len(res.latMS))
	}
}
