// Package pool provides reusable float64 scratch buffers for the batched
// compute kernels: a grow-in-place helper for single-owner caches and a
// concurrency-safe free list for buffers that cross call boundaries. Both
// exist so the steady-state batched forward/backward path performs zero
// heap allocation — buffers are allocated once at the high-water batch
// size and recycled forever after. Grow allocates exactly what is asked
// for: a layer cache is sized by the largest batch it has seen, and
// headroom beyond that would only add to the live heap.
package pool

import "sync"

// Grow returns a slice of length n backed by buf's array when its capacity
// suffices, and otherwise a new array of exactly n elements. Contents are
// unspecified; callers overwrite or zero as needed. This is the idiom for
// layer-owned batch caches: `l.buf = pool.Grow(l.buf, n*width)` allocates
// on the first batch and on each new high-water batch size, then never
// again.
func Grow(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}

// GrowInts is Grow for index scratch (pooling argmax buffers).
func GrowInts(buf []int, n int) []int {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int, n)
}

// Grow8 is Grow for int8 code panels (quantized activations and packed
// weights in the int8 inference path).
func Grow8(buf []int8, n int) []int8 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int8, n)
}

// Grow32 is Grow for int32 accumulator scratch (quantized GEMM outputs).
func Grow32(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]int32, n)
}

// roundUp pads a Pool allocation to the next power of two, the capacity of
// its bucket.
func roundUp(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// Pool is a size-bucketed free list of []float64 scratch buffers, safe for
// concurrent use. Get/Put round capacities to powers of two, so a server
// whose batch sizes fluctuate between flushes reuses the same few arrays
// instead of churning the heap.
type Pool struct {
	mu      sync.Mutex
	buckets map[int][][]float64
}

// Get returns a slice of length n with unspecified contents.
func (p *Pool) Get(n int) []float64 {
	if n == 0 {
		return nil
	}
	c := roundUp(n)
	p.mu.Lock()
	if bufs := p.buckets[c]; len(bufs) > 0 {
		b := bufs[len(bufs)-1]
		p.buckets[c] = bufs[:len(bufs)-1]
		p.mu.Unlock()
		return b[:n]
	}
	p.mu.Unlock()
	return make([]float64, n, c)
}

// Put returns a buffer obtained from Get to the pool. Putting a foreign
// slice is allowed as long as its capacity is a power of two; other
// capacities are dropped on the floor rather than corrupting a bucket.
func (p *Pool) Put(b []float64) {
	c := cap(b)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	p.mu.Lock()
	if p.buckets == nil {
		p.buckets = make(map[int][][]float64)
	}
	if len(p.buckets[c]) < 8 { // bound per-bucket retention
		p.buckets[c] = append(p.buckets[c], b[:0])
	}
	p.mu.Unlock()
}
