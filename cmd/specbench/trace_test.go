package main

import (
	"math"
	"testing"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := span{Start: 100, End: 200}
	iv := func(a, b int64) span { return span{Start: a, End: b} }
	for _, c := range []struct {
		name     string
		children []span
		want     int64
	}{
		{"no children", nil, 100},
		{"one child", []span{iv(110, 130)}, 80},
		{"overlapping", []span{iv(110, 130), iv(120, 150)}, 60},
		{"nested", []span{iv(110, 150), iv(120, 130)}, 60},
		{"disjoint, unsorted", []span{iv(140, 160), iv(110, 120)}, 70},
		{"touching", []span{iv(110, 120), iv(120, 130)}, 80},
		{"clipped to the parent", []span{iv(90, 105), iv(190, 230)}, 85},
		{"outside the parent", []span{iv(10, 20), iv(300, 400)}, 100},
		{"covering the parent", []span{iv(150, 250), iv(50, 160)}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAnalyzeSpansSplitsRequestTime(t *testing.T) {
	// One request: the front spends 10 ns of 100 outside its two hops
	// (which overlap by 10); each hop spends 20 outside its handler.
	spans := []span{
		{Name: spanRequest, ID: 1, Start: 0, End: 100},
		{Name: spanHop, ID: 2, Parent: 1, Start: 5, End: 55},
		{Name: spanHop, ID: 3, Parent: 1, Start: 45, End: 95},
		{Name: spanHandler, ID: 4, Parent: 2, Start: 15, End: 45},
		{Name: spanHandler, ID: 5, Parent: 3, Start: 55, End: 85},
		{Name: spanWrite, ID: 6, Start: 0, End: 1000},
		{Name: spanHop, ID: 7, Parent: 6, Start: 10, End: 990},
		{Name: spanPublish, ID: 8, Parent: 7, Start: 20, End: 980},
		{Name: spanRequest, ID: 9, Start: 5000, End: 6000}, // outside the window
	}
	st := analyzeSpans(spans, 0, 1000)
	want := spanStats{frontSelfMS: 10e-6, hopMS: 20e-6, handlerMS: 30e-6, publishMS: 960e-6}
	for _, c := range [][2]float64{
		{st.frontSelfMS, want.frontSelfMS}, {st.hopMS, want.hopMS},
		{st.handlerMS, want.handlerMS}, {st.publishMS, want.publishMS},
	} {
		if math.Abs(c[0]-c[1]) > 1e-12 {
			t.Errorf("got %+v, want %+v", st, want)
			break
		}
	}
}
