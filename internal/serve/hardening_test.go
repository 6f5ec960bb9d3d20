package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestReloadWidthMismatchFailsGracefully pins the hot-reload width race:
// a request preprocessed for the old input width that only reaches the
// dispatcher after a width-changing reload must get an error response —
// the Forward panic path would kill the whole process.
func TestReloadWidthMismatchFailsGracefully(t *testing.T) {
	srv, _ := testServer(t, Config{})
	e, err := srv.reg.get("test")
	if err != nil {
		t.Fatal(err)
	}
	// A request enqueued now carries 24 samples (the width at preprocess
	// time). Swap in a 48-wide model before the flush sees it.
	if err := srv.Registry().Register("test", testModel(t, 7, 48, 3)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := testContext(t, 30*time.Second)
	defer cancel()
	if _, err := e.batcher.Predict(ctx, ramp(24, 0)); !errors.Is(err, ErrModelReloaded) {
		t.Fatalf("stale-width predict returned %v, want ErrModelReloaded", err)
	}
	// The dispatcher survived; a fresh request preprocessed for the new
	// width must succeed.
	var resp predictResponse
	if code := post(t, srv.Handler(), "/v1/predict", map[string]any{
		"model": "test", "intensities": ramp(48, 1),
	}, &resp); code != http.StatusOK {
		t.Fatalf("predict after width change: status %d (%s)", code, resp.Error)
	}
}

// TestReloadWidthMismatchEndToEnd drives the same race through the HTTP
// layer: a request queued behind a busy model when a width-changing swap
// lands gets 409 Conflict, not a crash or 500.
func TestReloadWidthMismatchEndToEnd(t *testing.T) {
	srv, _ := testServer(t, Config{MaxBatch: 64})
	gated, gate := gatedModel(t, 42, 24, 3)
	defer gate.open()
	if err := srv.Registry().Register("test", gated); err != nil {
		t.Fatal(err)
	}
	e, err := srv.reg.get("test")
	if err != nil {
		t.Fatal(err)
	}
	predict := func(phase float64) <-chan int {
		code := make(chan int, 1)
		go func() {
			var resp predictResponse
			code <- post(t, srv.Handler(), "/v1/predict", map[string]any{
				"model": "test", "intensities": ramp(24, phase),
			}, &resp)
		}()
		return code
	}
	// The first request holds the dispatcher inside its forward pass; the
	// second, preprocessed for width 24, queues behind it.
	busy := predict(1)
	<-gate.entered
	stale := predict(0)
	waitQueued(t, e.batcher, 1)
	if err := srv.Registry().Register("test", testModel(t, 8, 48, 3)); err != nil {
		t.Fatal(err)
	}
	gate.open()
	if code := <-busy; code != http.StatusOK {
		t.Fatalf("request in flight across the swap: status %d, want 200", code)
	}
	if code := <-stale; code != http.StatusConflict {
		t.Fatalf("stale-width request: status %d, want 409", code)
	}
}

// TestBatcherRecoversFromPanic proves a panicking run function fails its
// batch with an error instead of killing the dispatcher goroutine (and
// with it the process).
func TestBatcherRecoversFromPanic(t *testing.T) {
	b := newBatcher(1, func(xs [][]float64) ([][]float64, error) {
		if xs[0][0] == 13 {
			panic("poisoned forward pass")
		}
		return xs, nil
	}, "", nil, nil)
	defer b.Close()
	ctx, cancel := testContext(t, 30*time.Second)
	defer cancel()
	_, err := b.Predict(ctx, []float64{13})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("poisoned batch returned %v, want panic-wrapping error", err)
	}
	// the dispatcher is still alive and serving
	y, err := b.Predict(ctx, []float64{2})
	if err != nil || len(y) != 1 || y[0] != 2 {
		t.Fatalf("predict after panic: y=%v err=%v", y, err)
	}
}

// TestMonitorSessionCap pins the session cap: creation past MaxSessions is
// refused with 429 and frees up again when a session is closed.
func TestMonitorSessionCap(t *testing.T) {
	srv, _ := testServer(t, Config{MaxSessions: 2})
	h := srv.Handler()
	var created struct {
		Session string `json:"session"`
		Error   string `json:"error"`
	}
	ids := make([]string, 2)
	for i := range ids {
		if code := post(t, h, "/v1/monitor", map[string]any{"model": "test"}, &created); code != http.StatusOK {
			t.Fatalf("create %d: status %d (%s)", i, code, created.Error)
		}
		ids[i] = created.Session
	}
	if code := post(t, h, "/v1/monitor", map[string]any{"model": "test"}, &created); code != http.StatusTooManyRequests {
		t.Fatalf("create past cap: status %d, want 429", code)
	}
	if code := do(t, h, http.MethodDelete, "/v1/monitor/"+ids[0], []byte(nil), nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if code := post(t, h, "/v1/monitor", map[string]any{"model": "test"}, &created); code != http.StatusOK {
		t.Fatalf("create after delete: status %d (%s)", code, created.Error)
	}
}

// TestMonitorSessionIdleExpiry pins the idle TTL: a session that is not
// touched for longer than SessionIdleTimeout disappears.
func TestMonitorSessionIdleExpiry(t *testing.T) {
	srv, _ := testServer(t, Config{SessionIdleTimeout: 30 * time.Millisecond})
	h := srv.Handler()
	var created struct {
		Session string `json:"session"`
		Error   string `json:"error"`
	}
	if code := post(t, h, "/v1/monitor", map[string]any{"model": "test"}, &created); code != http.StatusOK {
		t.Fatalf("create: status %d (%s)", code, created.Error)
	}
	if code := do(t, h, http.MethodGet, "/v1/monitor/"+created.Session, []byte(nil), nil); code != http.StatusOK {
		t.Fatalf("status while fresh: %d", code)
	}
	time.Sleep(100 * time.Millisecond)
	if code := do(t, h, http.MethodGet, "/v1/monitor/"+created.Session, []byte(nil), nil); code != http.StatusNotFound {
		t.Fatalf("status after idle expiry: %d, want 404", code)
	}
	var listResp struct {
		Sessions []string `json:"sessions"`
	}
	do(t, h, http.MethodGet, "/v1/monitor", []byte(nil), &listResp)
	if len(listResp.Sessions) != 0 {
		t.Fatalf("expired session still listed: %v", listResp.Sessions)
	}
}

// TestCanceledRequestNotAServerError pins the metrics semantics of a
// client that hangs up mid-request: the response status is 499, the
// request is counted, and the endpoint's error counter stays untouched.
func TestCanceledRequestNotAServerError(t *testing.T) {
	// A forward pass in flight keeps the dispatcher busy, so the canceled
	// context is what resolves the request.
	srv, _ := testServer(t, Config{MaxBatch: 64})
	gated, gate := gatedModel(t, 42, 24, 3)
	defer gate.open()
	if err := srv.Registry().Register("test", gated); err != nil {
		t.Fatal(err)
	}
	go post(t, srv.Handler(), "/v1/predict", map[string]any{"model": "test", "intensities": ramp(24, 1)}, nil)
	<-gate.entered
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body, err := json.Marshal(map[string]any{"model": "test", "intensities": ramp(24, 0)})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(string(body))).WithContext(ctx)
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != statusClientClosedRequest {
		t.Fatalf("canceled request: status %d, want %d", rec.Code, statusClientClosedRequest)
	}
	if n := endpointCount(srv, "specserve_http_requests_total", "predict"); n != 1 {
		t.Fatalf("request count %d, want 1", n)
	}
	if n := endpointCount(srv, "specserve_http_errors_total", "predict"); n != 0 {
		t.Fatalf("client-initiated abort counted as server error: %d", n)
	}
}

// TestEmptyModelNameAmbiguousIs400 pins the missing-required-field
// semantics: with several models registered, omitting the model name is a
// malformed request (400), not a missing resource (404).
func TestEmptyModelNameAmbiguousIs400(t *testing.T) {
	srv, _ := testServer(t, Config{})
	if err := srv.Registry().Register("other", testModel(t, 9, 24, 3)); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	var resp predictResponse
	if code := post(t, h, "/v1/predict", map[string]any{"intensities": ramp(24, 0)}, &resp); code != http.StatusBadRequest {
		t.Fatalf("ambiguous predict: status %d (%s), want 400", code, resp.Error)
	}
	var mresp struct {
		Error string `json:"error"`
	}
	if code := post(t, h, "/v1/monitor", map[string]any{}, &mresp); code != http.StatusBadRequest {
		t.Fatalf("ambiguous monitor create: status %d (%s), want 400", code, mresp.Error)
	}
	// a truly unknown name is still 404
	if code := post(t, h, "/v1/predict", map[string]any{"model": "nope", "intensities": ramp(24, 0)}, &resp); code != http.StatusNotFound {
		t.Fatalf("unknown model: status %d, want 404", code)
	}
}
