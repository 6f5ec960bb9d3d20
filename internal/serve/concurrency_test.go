package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"specml/internal/obs"
)

// httpPost sends one JSON request over a real connection and decodes the
// JSON response.
func httpPost(c *http.Client, url string, body any, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}

// TestConcurrentPredictBitIdentical is the acceptance test of the
// batcher: many parallel /v1/predict requests, coalesced into shared
// forward passes, must return exactly the bytes a sequential single-sample
// Predict produces. JSON float64 encoding is shortest-round-trip, so a
// decoded fraction is bit-identical to the served value.
func TestConcurrentPredictBitIdentical(t *testing.T) {
	srv, m := testServer(t, Config{MaxBatch: 16})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 120
	inputs := make([][]float64, n)
	want := make([][]float64, n)
	for i := range inputs {
		inputs[i] = ramp(24, float64(i))
		x, err := preprocessInput(inputs[i], nil, "", m.InputLen())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m.Predict(x)
	}

	var (
		wg    sync.WaitGroup
		start = make(chan struct{})
		got   = make([][]float64, n)
		errs  = make([]error, n)
	)
	client := ts.Client()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var resp predictResponse
			code, err := httpPost(client, ts.URL+"/v1/predict",
				map[string]any{"model": "test", "intensities": inputs[i]}, &resp)
			if err != nil {
				errs[i] = err
				return
			}
			if code != http.StatusOK {
				errs[i] = errors.New(resp.Error)
				return
			}
			got[i] = resp.Fractions
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("request %d: %d fractions, want %d", i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d output %d: batched %v != sequential %v (must be bit-identical)",
					i, j, got[i][j], want[i][j])
			}
		}
	}

	sizes := batchSizes(srv)
	if sizes.Sum() != n {
		t.Fatalf("batch-size histogram saw %g batched inputs, want %d", sizes.Sum(), n)
	}
	if c := sizes.Count(); c < 1 || c > n {
		t.Fatalf("implausible batch count %d for %d requests", c, n)
	}
}

// TestBatcherCoalesces pins continuous batching with a deterministic run
// function: requests that queue while a forward pass runs all leave in the
// next flush, as soon as the dispatcher is free.
func TestBatcherCoalesces(t *testing.T) {
	const maxBatch = 8
	var (
		mu      sync.Mutex
		sizes   []int
		entered = make(chan struct{})
		release = make(chan struct{})
	)
	b := newBatcher(maxBatch, func(xs [][]float64) ([][]float64, error) {
		mu.Lock()
		sizes = append(sizes, len(xs))
		first := len(sizes) == 1
		mu.Unlock()
		if first {
			close(entered)
			<-release
		}
		ys := make([][]float64, len(xs))
		for i, x := range xs {
			ys[i] = []float64{x[0] * 2}
		}
		return ys, nil
	}, "", nil, nil)
	defer b.Close()
	var releaseOnce sync.Once
	open := func() { releaseOnce.Do(func() { close(release) }) }
	defer open()

	var wg sync.WaitGroup
	predict := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			y, err := b.Predict(context.Background(), []float64{float64(i)})
			if err != nil {
				t.Errorf("predict %d: %v", i, err)
				return
			}
			if len(y) != 1 || y[0] != float64(i)*2 {
				t.Errorf("predict %d: got %v", i, y)
			}
		}()
	}
	predict(0)
	<-entered
	for i := 1; i <= maxBatch; i++ {
		predict(i)
	}
	waitQueued(t, b, maxBatch)
	open()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != maxBatch {
		t.Fatalf("flush sizes %v, want [1 %d]", sizes, maxBatch)
	}
}

// TestBatcherFlushAllocFree pins the steady-state contract of the
// dispatcher: once its scratch is warm, collecting and flushing a batch
// allocates nothing per batch (no timer, no batch or input slice). The
// dispatcher never waits for a batch to fill, so it needs no timer.
func TestBatcherFlushAllocFree(t *testing.T) {
	const n = 4
	ys := make([][]float64, n)
	reqs := make([]*request, n)
	for i := range reqs {
		ys[i] = []float64{float64(i)}
		reqs[i] = &request{x: []float64{1}, resp: make(chan response, 1)}
	}
	b := &Batcher{
		maxBatch: n,
		reqs:     make(chan *request, n),
		logger:   obs.NopLogger(),
		run:      func(xs [][]float64) ([][]float64, error) { return ys[:len(xs)], nil },
	}
	cycle := func() {
		for _, r := range reqs[1:] {
			b.reqs <- r
		}
		b.flush(b.collect(reqs[0]))
		for _, r := range reqs {
			<-r.resp
		}
	}
	cycle() // warm the scratch
	if a := testing.AllocsPerRun(100, cycle); a != 0 {
		t.Fatalf("collect+flush allocates %.1f objects per batch, want 0", a)
	}
}

// TestBatcherShutdownDrains proves Close never drops accepted requests:
// every Predict that was admitted before Close must receive its result.
func TestBatcherShutdownDrains(t *testing.T) {
	const n = 24
	b := newBatcher(4, func(xs [][]float64) ([][]float64, error) {
		time.Sleep(10 * time.Millisecond) // make batches slow enough to pile up
		ys := make([][]float64, len(xs))
		for i, x := range xs {
			ys[i] = []float64{x[0] + 1}
		}
		return ys, nil
	}, "", nil, nil)

	var (
		wg       sync.WaitGroup
		admitted sync.WaitGroup
		results  = make([]error, n)
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		admitted.Add(1)
		go func(i int) {
			defer wg.Done()
			admitted.Done()
			y, err := b.Predict(context.Background(), []float64{float64(i)})
			if err == nil && (len(y) != 1 || y[0] != float64(i)+1) {
				err = errors.New("wrong result")
			}
			results[i] = err
		}(i)
	}
	admitted.Wait()
	time.Sleep(2 * time.Millisecond) // let requests reach the queue
	b.Close()

	// after Close every new request is refused
	if _, err := b.Predict(context.Background(), []float64{1}); !errors.Is(err, ErrBatcherClosed) {
		t.Fatalf("post-close Predict returned %v, want ErrBatcherClosed", err)
	}

	wg.Wait()
	for i, err := range results {
		if err != nil && !errors.Is(err, ErrBatcherClosed) {
			t.Fatalf("request %d: %v", i, err)
		}
		if err == nil {
			continue
		}
	}
	// Close must have answered (not dropped) every admitted request: a
	// request either completed with its result or was refused before
	// admission — none may hang. Reaching this line proves no deadlock;
	// now require that at least one batch actually drained post-Close.
	completed := 0
	for _, err := range results {
		if err == nil {
			completed++
		}
	}
	if completed == 0 {
		t.Fatal("no admitted request completed; drain did not happen")
	}
}

// TestBatcherContextTimeout bounds a request's wait when the dispatcher is
// busy.
func TestBatcherContextTimeout(t *testing.T) {
	block := make(chan struct{})
	b := newBatcher(1, func(xs [][]float64) ([][]float64, error) {
		<-block
		return xs, nil
	}, "", nil, nil)
	defer func() {
		close(block)
		b.Close()
	}()
	// first request occupies the dispatcher
	go b.Predict(context.Background(), []float64{1}) //nolint:errcheck
	time.Sleep(5 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := b.Predict(ctx, []float64{2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("timeout did not bound the wait")
	}
}
