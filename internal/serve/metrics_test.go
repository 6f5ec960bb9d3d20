package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"specml/internal/obs"
)

// scrape fetches GET /metrics and returns the exposition body.
func scrape(t testing.TB, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: content type %q", ct)
	}
	return rec.Body.String()
}

// TestMetricsEndpoint drives predictions, a monitor session and a failed
// request through the server and asserts every advertised metric family
// shows up in the exposition with the expected structure.
func TestMetricsEndpoint(t *testing.T) {
	srv, _ := testServer(t, Config{})
	h := srv.Handler()
	x := ramp(24, 0)

	var resp predictResponse
	for i := 0; i < 3; i++ {
		if code := post(t, h, "/v1/predict", map[string]any{"model": "test", "intensities": x}, &resp); code != http.StatusOK {
			t.Fatalf("predict %d: status %d (%s)", i, code, resp.Error)
		}
	}
	// One failing predict: unknown model -> endpoint error counter.
	post(t, h, "/v1/predict", map[string]any{"model": "nope", "intensities": x}, &resp)
	// One live monitor session -> session gauge.
	var mon struct {
		Session string `json:"session"`
	}
	if code := post(t, h, "/v1/monitor", map[string]any{
		"model":     "test",
		"names":     []string{"A", "B", "C"},
		"smoothing": 0.5,
	}, &mon); code != http.StatusOK {
		t.Fatalf("monitor create: %d", code)
	}

	out := scrape(t, h)
	for _, want := range []string{
		// All five pipeline stages of the latency histogram family; the
		// serialization stages are split by codec.
		`specserve_stage_seconds_bucket{codec="json",stage="decode",le="+Inf"}`,
		`specserve_stage_seconds_bucket{codec="binary",stage="decode",le="+Inf"}`,
		`specserve_stage_seconds_bucket{stage="preprocess",le="+Inf"}`,
		`specserve_stage_seconds_bucket{stage="batch_wait",le="+Inf"}`,
		`specserve_stage_seconds_bucket{stage="forward",le="+Inf"}`,
		`specserve_stage_seconds_bucket{codec="json",stage="encode",le="+Inf"}`,
		`specserve_stage_seconds_bucket{codec="binary",stage="encode",le="+Inf"}`,
		"# TYPE specserve_stage_seconds histogram",
		// Batch-size distribution and queue/session gauges.
		"# TYPE specserve_batch_size histogram",
		`specserve_queue_depth{model="test"} 0`,
		"specserve_monitor_sessions 1",
		// Per-model and per-endpoint counters.
		`specserve_model_requests_total{model="test"} 3`,
		`specserve_model_errors_total{model="test"} 0`,
		`specserve_http_requests_total{endpoint="predict"} 4`,
		`specserve_http_errors_total{endpoint="predict"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// The three successful predictions must be visible in the forward-stage
	// count and the batch-size histogram (batches <= requests).
	var forwardCount int
	fmt.Sscanf(line(t, out, `specserve_stage_seconds_count{stage="forward"}`), "%d", &forwardCount)
	if forwardCount < 1 || forwardCount > 3 {
		t.Fatalf("forward stage count %d, want 1..3 batches for 3 requests", forwardCount)
	}
	var batchSum float64
	fmt.Sscanf(line(t, out, "specserve_batch_size_sum"), "%g", &batchSum)
	if batchSum != 3 {
		t.Fatalf("batch_size sum %g, want 3 (every request in exactly one batch)", batchSum)
	}
	if strings.Contains(out, "precision=") {
		t.Fatalf("exposition still carries a precision label:\n%s", out)
	}
}

// batchSizes returns the server's specserve_batch_size histogram: the
// registry hands back the child the server registered.
func batchSizes(s *Server) *obs.Histogram {
	return s.Metrics().Histogram("specserve_batch_size", "", obs.SizeBuckets)
}

// endpointCount reads one endpoint's specserve_http_requests_total or
// specserve_http_errors_total counter.
func endpointCount(s *Server, family, endpoint string) uint64 {
	return s.Metrics().Counter(family, "", obs.L("endpoint", endpoint)).Value()
}

// line extracts the sample value text following a series name prefix.
func line(t testing.TB, exposition, prefix string) string {
	t.Helper()
	for _, l := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(l, prefix+" ") {
			return strings.TrimPrefix(l, prefix+" ")
		}
	}
	t.Fatalf("exposition has no series %q:\n%s", prefix, exposition)
	return ""
}

// TestMetricsConcurrentScrape hammers GET /metrics while predictions are
// in flight and models hot-reload — the lock-ordering and data-race proof
// for the scrape path, meaningful under -race.
func TestMetricsConcurrentScrape(t *testing.T) {
	dir := t.TempDir()
	var tmpSeq atomic.Int64
	// writeModel replaces a model file atomically (write + rename) so a
	// reload racing the write never reads a half-written JSON document.
	writeModel := func(name string, seed uint64) {
		t.Helper()
		m := testModel(t, seed, 24, 3)
		tmp := filepath.Join(dir, fmt.Sprintf(".tmp-%d", tmpSeq.Add(1)))
		f, err := os.Create(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
			t.Fatal(err)
		}
	}
	writeModel("alpha.json", 1)
	writeModel("beta.json", 2)

	srv, err := New(Config{ModelDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := testContext(t, 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	}()
	h := srv.Handler()

	const (
		predictors = 8
		scrapers   = 4
		reloaders  = 2
		iters      = 40
	)
	var wg sync.WaitGroup
	fail := make(chan string, predictors+scrapers+reloaders)
	for p := 0; p < predictors; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			model := "alpha"
			if p%2 == 1 {
				model = "beta"
			}
			x := ramp(24, float64(p))
			for i := 0; i < iters; i++ {
				var resp predictResponse
				code := post(t, h, "/v1/predict", map[string]any{"model": model, "intensities": x}, &resp)
				// 409 is legal mid-reload (width contract); anything else
				// non-OK is a failure.
				if code != http.StatusOK && code != http.StatusConflict {
					fail <- fmt.Sprintf("predict %s: status %d (%s)", model, code, resp.Error)
					return
				}
			}
		}(p)
	}
	for sCount := 0; sCount < scrapers; sCount++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				if rec.Code != http.StatusOK {
					fail <- fmt.Sprintf("scrape: status %d", rec.Code)
					return
				}
				if !strings.Contains(rec.Body.String(), "specserve_queue_depth") {
					fail <- "scrape: exposition missing queue depth"
					return
				}
			}
		}()
	}
	for rCount := 0; rCount < reloaders; rCount++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < iters/4; i++ {
				writeModel("alpha.json", uint64(3+r*100+i))
				var rel struct {
					Reloaded []string `json:"reloaded"`
				}
				if code := post(t, h, "/v1/models/reload", map[string]any{}, &rel); code != http.StatusOK {
					fail <- fmt.Sprintf("reload: status %d", code)
					return
				}
			}
		}(rCount)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Error(msg)
	}

	out := scrape(t, h)
	for _, want := range []string{
		`specserve_model_requests_total{model="alpha"}`,
		`specserve_model_requests_total{model="beta"}`,
		`specserve_reloads_total{result="ok"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("post-race exposition missing %q", want)
		}
	}
}

// TestMetricsRecordingAllocFree pins the acceptance criterion that
// steady-state metric recording on the predict hot path performs zero
// heap allocations: the per-request instruments (stage histograms, model
// and endpoint counters) are resolved ahead of time and recording is all
// atomics.
func TestMetricsRecordingAllocFree(t *testing.T) {
	srv, _ := testServer(t, Config{})
	e, err := srv.reg.get("test")
	if err != nil {
		t.Fatal(err)
	}
	mx := srv.mx
	t0 := time.Now()
	if n := testing.AllocsPerRun(200, func() {
		e.reqs.Inc()
		mx.stDecodeJSON.ObserveSince(t0)
		mx.stDecodeBinary.ObserveSince(t0)
		mx.stPreprocess.ObserveSince(t0)
		mx.stBatchWait.Observe(0.0001)
		mx.stForward.ObserveSince(t0)
		mx.stEncodeJSON.ObserveSince(t0)
		mx.stEncodeBinary.ObserveSince(t0)
		mx.batchSize.Observe(4)
	}); n != 0 {
		t.Fatalf("hot-path metric recording allocates %.1f objects/op, want 0", n)
	}
}
