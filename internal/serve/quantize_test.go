package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// quantServer wires one registered model into a server running int8
// engines (Config.Quantize).
func quantServer(t testing.TB) *Server {
	t.Helper()
	srv, _ := testServer(t, Config{Quantize: true})
	return srv
}

// postRaw is post with access to the response recorder, for header checks.
func postRaw(t testing.TB, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	return rec
}

// TestQuantizedPredictEndToEnd runs the same spectrum through a float and
// an int8 server sharing one model seed: the quantized response must be
// close (the bounded-drift contract), carry the int8 precision header and
// still be a softmax distribution.
func TestQuantizedPredictEndToEnd(t *testing.T) {
	fsrv, _ := testServer(t, Config{})
	qsrv := quantServer(t)
	x := ramp(24, 0)
	body := map[string]any{"model": "test", "intensities": x}

	frec := postRaw(t, fsrv.Handler(), "/v1/predict", body)
	qrec := postRaw(t, qsrv.Handler(), "/v1/predict", body)
	if frec.Code != http.StatusOK || qrec.Code != http.StatusOK {
		t.Fatalf("predict status: float %d, quantized %d", frec.Code, qrec.Code)
	}
	if got := frec.Header().Get(precisionHeader); got != "fp64" {
		t.Fatalf("float server %s = %q, want fp64", precisionHeader, got)
	}
	if got := qrec.Header().Get(precisionHeader); got != "int8" {
		t.Fatalf("quantized server %s = %q, want int8", precisionHeader, got)
	}
	var fresp, qresp predictResponse
	if err := json.Unmarshal(frec.Body.Bytes(), &fresp); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(qrec.Body.Bytes(), &qresp); err != nil {
		t.Fatal(err)
	}
	if len(qresp.Fractions) != len(fresp.Fractions) {
		t.Fatalf("quantized output width %d, want %d", len(qresp.Fractions), len(fresp.Fractions))
	}
	sum := 0.0
	for i := range fresp.Fractions {
		if d := math.Abs(qresp.Fractions[i] - fresp.Fractions[i]); d > 0.05 {
			t.Fatalf("fraction %d drifted by %g (int8 %g vs float %g)",
				i, d, qresp.Fractions[i], fresp.Fractions[i])
		}
		sum += qresp.Fractions[i]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("quantized fractions sum to %g, want 1 (softmax head)", sum)
	}
}

// TestQuantizedModelListPrecision checks /v1/models advertises which
// engine answers requests.
func TestQuantizedModelListPrecision(t *testing.T) {
	for _, tc := range []struct {
		quantize bool
		want     string
	}{{false, "fp64"}, {true, "int8"}} {
		srv, _ := testServer(t, Config{Quantize: tc.quantize})
		var list struct {
			Models []ModelInfo `json:"models"`
		}
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/models", nil))
		if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
			t.Fatal(err)
		}
		if len(list.Models) != 1 || list.Models[0].Precision != tc.want {
			t.Fatalf("quantize=%v: models %+v, want one entry with precision %q",
				tc.quantize, list.Models, tc.want)
		}
	}
}

// TestQuantizedMonitorStepHeader checks the precision header also rides on
// monitor-step responses, which run the same batched forward path.
func TestQuantizedMonitorStepHeader(t *testing.T) {
	srv := quantServer(t)
	h := srv.Handler()
	var mon struct {
		Session string `json:"session"`
	}
	if code := post(t, h, "/v1/monitor", map[string]any{"model": "test", "smoothing": 0.5}, &mon); code != http.StatusOK {
		t.Fatalf("monitor create: %d", code)
	}
	rec := postRaw(t, h, "/v1/monitor/"+mon.Session+"/step",
		map[string]any{"intensities": ramp(24, 1)})
	if rec.Code != http.StatusOK {
		t.Fatalf("monitor step: %d (%s)", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(precisionHeader); got != "int8" {
		t.Fatalf("monitor step %s = %q, want int8", precisionHeader, got)
	}
}

// TestQuantizedForwardMetrics checks the forward stage records into the
// precision="int8" series on a quantized server while the fp64 series
// stays at zero — the dashboard-facing half of the precision split.
func TestQuantizedForwardMetrics(t *testing.T) {
	srv := quantServer(t)
	h := srv.Handler()
	x := ramp(24, 0)
	for i := 0; i < 3; i++ {
		var resp predictResponse
		if code := post(t, h, "/v1/predict", map[string]any{"model": "test", "intensities": x}, &resp); code != http.StatusOK {
			t.Fatalf("predict %d: status %d (%s)", i, code, resp.Error)
		}
	}
	out := scrape(t, h)
	if got := line(t, out, `specserve_stage_seconds_count{precision="int8",stage="forward"}`); got == "0" {
		t.Fatal("int8 forward series did not record any batches")
	}
	if got := line(t, out, `specserve_stage_seconds_count{precision="fp64",stage="forward"}`); got != "0" {
		t.Fatalf("fp64 forward series recorded %s batches on a quantized server, want 0", got)
	}
}

// TestQuantizedReloadKeepsEngine hot-reloads a model directory on a
// quantized server: the swapped-in weights must get a fresh int8 engine
// and keep serving int8-labeled predictions.
func TestQuantizedReloadKeepsEngine(t *testing.T) {
	dir := t.TempDir()
	write := func(seed uint64) {
		t.Helper()
		m := testModel(t, seed, 24, 3)
		f, err := os.Create(filepath.Join(dir, "alpha.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	write(1)
	srv, err := New(Config{ModelDir: dir, Quantize: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := testContext(t, 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	}()
	h := srv.Handler()

	before := postRaw(t, h, "/v1/predict", map[string]any{"intensities": ramp(24, 0)})
	if before.Code != http.StatusOK || before.Header().Get(precisionHeader) != "int8" {
		t.Fatalf("pre-reload predict: status %d, precision %q",
			before.Code, before.Header().Get(precisionHeader))
	}
	write(2) // new weights under the same name
	var rel struct {
		Reloaded []string `json:"reloaded"`
	}
	if code := post(t, h, "/v1/models/reload", map[string]any{}, &rel); code != http.StatusOK {
		t.Fatalf("reload: %d", code)
	}
	after := postRaw(t, h, "/v1/predict", map[string]any{"intensities": ramp(24, 0)})
	if after.Code != http.StatusOK || after.Header().Get(precisionHeader) != "int8" {
		t.Fatalf("post-reload predict: status %d, precision %q",
			after.Code, after.Header().Get(precisionHeader))
	}
	if strings.TrimSpace(before.Body.String()) == strings.TrimSpace(after.Body.String()) {
		t.Fatal("reload with new weights returned identical predictions; swap did not take")
	}
}
