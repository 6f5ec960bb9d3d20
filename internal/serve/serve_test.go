package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"specml/internal/nn"
	"specml/internal/rng"
)

// testModel builds a small deterministic dense network: inLen -> 16 -> out
// with a softmax head, seeded so every test run serves identical weights.
// Any front layers run before the stack.
func testModel(t testing.TB, seed uint64, inLen, outLen int, front ...nn.Layer) *nn.Model {
	t.Helper()
	m := nn.NewModel()
	for _, l := range front {
		m.Add(l)
	}
	m.Add(&nn.Dense{Out: 16})
	act, err := nn.ActivationByName("tanh")
	if err != nil {
		t.Fatal(err)
	}
	m.Add(&nn.ActivationLayer{Act: act})
	m.Add(&nn.Dense{Out: outLen})
	m.Add(&nn.SoftmaxLayer{})
	if err := m.Build(rng.New(seed), inLen); err != nil {
		t.Fatal(err)
	}
	return m
}

// testServer wires one registered model into a ready Server.
func testServer(t testing.TB, cfg Config) (*Server, *nn.Model) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m := testModel(t, 42, 24, 3)
	if err := srv.Registry().Register("test", m); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := testContext(t, 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})
	return srv, m
}

// gateLayer is a test-only identity layer whose ForwardBatch blocks until
// the gate is opened. A model that starts with a gate holds its dispatcher
// busy in the first flush, so a test can queue requests behind a running
// forward pass deterministically.
type gateLayer struct {
	entered   chan struct{} // closed when the first ForwardBatch starts
	release   chan struct{}
	enterOnce sync.Once
	openOnce  sync.Once
}

func (g *gateLayer) Kind() string { return "gate" }
func (g *gateLayer) Build(_ *rng.Source, in []int) ([]int, error) {
	return in, nil
}
func (g *gateLayer) Forward(x []float64) []float64              { return x }
func (g *gateLayer) Backward(d []float64) []float64             { return d }
func (g *gateLayer) BackwardBatch(d []float64, _ int) []float64 { return d }
func (g *gateLayer) Params() []*nn.Param                        { return nil }
func (g *gateLayer) Spec() nn.LayerSpec                         { return nn.LayerSpec{Type: "gate"} }

func (g *gateLayer) ForwardBatch(x []float64, _ int) []float64 {
	g.enterOnce.Do(func() { close(g.entered) })
	<-g.release
	return x
}

// open lets every blocked and future ForwardBatch through. It is
// idempotent, so tests defer it to release the dispatcher on any exit.
func (g *gateLayer) open() { g.openOnce.Do(func() { close(g.release) }) }

// gatedModel is testModel behind a closed gate.
func gatedModel(t testing.TB, seed uint64, inLen, outLen int) (*nn.Model, *gateLayer) {
	t.Helper()
	g := &gateLayer{entered: make(chan struct{}), release: make(chan struct{})}
	return testModel(t, seed, inLen, outLen, g), g
}

// waitQueued blocks until n requests wait in b's queue.
func waitQueued(t testing.TB, b *Batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(b.reqs) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests queued after 10s", len(b.reqs), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// testContext bounds a test's shutdown wait.
func testContext(t testing.TB, d time.Duration) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), d)
}

// post sends a JSON body and decodes the JSON response.
func post(t testing.TB, h http.Handler, path string, body any, out any) int {
	t.Helper()
	return do(t, h, http.MethodPost, path, body, out)
}

func do(t testing.TB, h http.Handler, method, path string, body any, out any) int {
	t.Helper()
	var r *bytes.Reader
	if raw, ok := body.([]byte); ok {
		r = bytes.NewReader(raw)
	} else {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		r = bytes.NewReader(b)
	}
	req := httptest.NewRequest(method, path, r)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: decoding response %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code
}

// ramp returns a deterministic non-negative spectrum of length n.
func ramp(n int, phase float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.1 + 0.9*float64((i*7+int(phase*13))%n)/float64(n)
	}
	return x
}

type predictResponse struct {
	Model     string    `json:"model"`
	Fractions []float64 `json:"fractions"`
	Error     string    `json:"error"`
}

func TestPredictEndToEnd(t *testing.T) {
	srv, m := testServer(t, Config{})
	x := ramp(24, 0)
	var resp predictResponse
	if code := post(t, srv.Handler(), "/v1/predict", map[string]any{
		"model": "test", "intensities": x,
	}, &resp); code != http.StatusOK {
		t.Fatalf("predict: status %d (%s)", code, resp.Error)
	}
	want, err := preprocessInput(x, nil, "", m.InputLen())
	if err != nil {
		t.Fatal(err)
	}
	wantY := m.Predict(want)
	if len(resp.Fractions) != len(wantY) {
		t.Fatalf("got %d fractions, want %d", len(resp.Fractions), len(wantY))
	}
	for i := range wantY {
		if resp.Fractions[i] != wantY[i] {
			t.Fatalf("fraction[%d] = %v, want %v (must be bit-identical)", i, resp.Fractions[i], wantY[i])
		}
	}
	// empty model name resolves when exactly one model is registered
	if code := post(t, srv.Handler(), "/v1/predict", map[string]any{"intensities": x}, &resp); code != http.StatusOK {
		t.Fatalf("single-model predict: status %d (%s)", code, resp.Error)
	}
}

// TestBatchWindowIgnored pins continuous batching at the server surface:
// the deprecated BatchWindow holds no batch open, so a lone predict on an
// idle model is answered at once even with an hour-long window.
func TestBatchWindowIgnored(t *testing.T) {
	srv, _ := testServer(t, Config{BatchWindow: time.Hour, RequestTimeout: 5 * time.Second})
	start := time.Now()
	var resp predictResponse
	if code := post(t, srv.Handler(), "/v1/predict", map[string]any{
		"model": "test", "intensities": ramp(24, 0),
	}, &resp); code != http.StatusOK {
		t.Fatalf("predict: status %d (%s), want 200", code, resp.Error)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("lone predict took %v; the dispatcher waited instead of flushing", d)
	}
}

func TestPredictResamplesForeignAxis(t *testing.T) {
	srv, _ := testServer(t, Config{})
	// 96 samples on a physical axis get interpolated down to the model's 24
	x := ramp(96, 1)
	var resp predictResponse
	code := post(t, srv.Handler(), "/v1/predict", map[string]any{
		"model":       "test",
		"intensities": x,
		"axis":        map[string]float64{"start": 1.0, "step": 0.5},
	}, &resp)
	if code != http.StatusOK {
		t.Fatalf("resampled predict: status %d (%s)", code, resp.Error)
	}
	if len(resp.Fractions) != 3 {
		t.Fatalf("got %d fractions, want 3", len(resp.Fractions))
	}
}

func TestPredictClientErrors(t *testing.T) {
	srv, _ := testServer(t, Config{})
	h := srv.Handler()
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"malformed json", []byte("{nope"), http.StatusBadRequest},
		{"unknown field", []byte(`{"intensities":[1,2],"bogus":1}`), http.StatusBadRequest},
		{"trailing garbage", []byte(`{"intensities":[1,2,3]}{"x":1}`), http.StatusBadRequest},
		{"too short", []byte(`{"model":"test","intensities":[1]}`), http.StatusBadRequest},
		{"empty", []byte(`{"model":"test","intensities":[]}`), http.StatusBadRequest},
		{"huge number", []byte(`{"model":"test","intensities":[1e999,1]}`), http.StatusBadRequest},
		{"bad normalize", []byte(`{"model":"test","intensities":[1,2,3],"normalize":"zscore"}`), http.StatusBadRequest},
		{"unknown model", []byte(`{"model":"nope","intensities":[1,2,3]}`), http.StatusNotFound},
	}
	for _, c := range cases {
		var resp predictResponse
		if code := do(t, h, http.MethodPost, "/v1/predict", c.body, &resp); code != c.want {
			t.Errorf("%s: status %d, want %d (error %q)", c.name, code, c.want, resp.Error)
		}
	}
}

func TestModelsList(t *testing.T) {
	srv, m := testServer(t, Config{})
	var list struct {
		Models []ModelInfo `json:"models"`
	}
	if code := do(t, srv.Handler(), http.MethodGet, "/v1/models", []byte(nil), &list); code != http.StatusOK {
		t.Fatalf("models: status %d", code)
	}
	if len(list.Models) != 1 || list.Models[0].Name != "test" ||
		list.Models[0].InputLen != m.InputLen() || list.Models[0].OutputLen != m.OutputLen() {
		t.Fatalf("model list %+v", list.Models)
	}
	var resp predictResponse
	post(t, srv.Handler(), "/v1/predict", map[string]any{"intensities": ramp(24, 2)}, &resp)
	if n := endpointCount(srv, "specserve_http_requests_total", "predict"); n != 1 {
		t.Fatalf("predict request count %d, want 1", n)
	}
	if sizes := batchSizes(srv); sizes.Count() != 1 || sizes.Sum() != 1 {
		t.Fatalf("batch-size histogram: %d batches of %g inputs, want 1 of 1", sizes.Count(), sizes.Sum())
	}
	if code := do(t, srv.Handler(), http.MethodGet, "/v1/stats", []byte(nil), nil); code != http.StatusNotFound {
		t.Fatalf("GET /v1/stats: status %d, want 404 (metrics live on /metrics)", code)
	}
}

func TestMonitorSessionLifecycle(t *testing.T) {
	srv, m := testServer(t, Config{})
	h := srv.Handler()

	var created struct {
		Session string   `json:"session"`
		Model   string   `json:"model"`
		Names   []string `json:"names"`
		Error   string   `json:"error"`
	}
	code := post(t, h, "/v1/monitor", map[string]any{
		"model":     "test",
		"names":     []string{"A", "B", "C"},
		"limits":    []map[string]any{{"name": "A", "min": 0.0, "max": 1e-9}},
		"smoothing": 0.5,
	}, &created)
	if code != http.StatusOK {
		t.Fatalf("create: status %d (%s)", code, created.Error)
	}
	if created.Session == "" || created.Model != "test" || len(created.Names) != 3 {
		t.Fatalf("create response %+v", created)
	}

	// softmax outputs are positive, so the absurd A-limit must alarm on
	// every step
	var stepResp struct {
		Step       int         `json:"step"`
		Prediction []float64   `json:"prediction"`
		Smoothed   []float64   `json:"smoothed"`
		Alarms     []alarmJSON `json:"alarms"`
		Error      string      `json:"error"`
	}
	for i := 1; i <= 3; i++ {
		code = post(t, h, "/v1/monitor/"+created.Session+"/step",
			map[string]any{"intensities": ramp(24, float64(i))}, &stepResp)
		if code != http.StatusOK {
			t.Fatalf("step %d: status %d (%s)", i, code, stepResp.Error)
		}
		if stepResp.Step != i || len(stepResp.Prediction) != m.OutputLen() || len(stepResp.Smoothed) != m.OutputLen() {
			t.Fatalf("step %d response %+v", i, stepResp)
		}
		if len(stepResp.Alarms) != 1 || stepResp.Alarms[0].Name != "A" {
			t.Fatalf("step %d alarms %+v", i, stepResp.Alarms)
		}
	}

	var status struct {
		Steps  int `json:"steps"`
		Alarms int `json:"alarms"`
	}
	if code := do(t, h, http.MethodGet, "/v1/monitor/"+created.Session, []byte(nil), &status); code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	if status.Steps != 3 || status.Alarms != 3 {
		t.Fatalf("status %+v", status)
	}

	var listResp struct {
		Sessions []string `json:"sessions"`
	}
	do(t, h, http.MethodGet, "/v1/monitor", []byte(nil), &listResp)
	if len(listResp.Sessions) != 1 || listResp.Sessions[0] != created.Session {
		t.Fatalf("session list %+v", listResp.Sessions)
	}

	if code := do(t, h, http.MethodDelete, "/v1/monitor/"+created.Session, []byte(nil), nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if code := post(t, h, "/v1/monitor/"+created.Session+"/step",
		map[string]any{"intensities": ramp(24, 9)}, nil); code != http.StatusNotFound {
		t.Fatalf("step after delete: %d, want 404", code)
	}
}

func TestMonitorCreateValidation(t *testing.T) {
	srv, _ := testServer(t, Config{})
	h := srv.Handler()
	cases := []struct {
		name string
		body map[string]any
		want int
	}{
		{"wrong name count", map[string]any{"model": "test", "names": []string{"A"}}, http.StatusBadRequest},
		{"bad smoothing", map[string]any{"model": "test", "smoothing": 1.5}, http.StatusBadRequest},
		{"unknown limit", map[string]any{"model": "test", "limits": []map[string]any{{"name": "Z"}}}, http.StatusBadRequest},
		{"unknown model", map[string]any{"model": "nope"}, http.StatusNotFound},
	}
	for _, c := range cases {
		var resp struct {
			Error string `json:"error"`
		}
		if code := post(t, h, "/v1/monitor", c.body, &resp); code != c.want {
			t.Errorf("%s: status %d, want %d (%s)", c.name, code, c.want, resp.Error)
		}
	}
}

func TestModelHotReload(t *testing.T) {
	dir := t.TempDir()
	writeModel := func(name string, seed uint64) {
		t.Helper()
		m := testModel(t, seed, 24, 3)
		f, err := os.Create(filepath.Join(dir, name))
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
	writeModel("alpha.json", 1)

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

	x := ramp(24, 3)
	var before predictResponse
	if code := post(t, h, "/v1/predict", map[string]any{"model": "alpha", "intensities": x}, &before); code != http.StatusOK {
		t.Fatalf("predict before reload: %d (%s)", code, before.Error)
	}

	// new weights for an existing name + a brand-new model
	writeModel("alpha.json", 2)
	writeModel("beta.json", 3)
	var rel struct {
		Reloaded []string `json:"reloaded"`
	}
	if code := post(t, h, "/v1/models/reload", map[string]any{}, &rel); code != http.StatusOK {
		t.Fatalf("reload: %d", code)
	}
	if fmt.Sprint(rel.Reloaded) != "[alpha beta]" {
		t.Fatalf("reloaded %v", rel.Reloaded)
	}

	var after predictResponse
	if code := post(t, h, "/v1/predict", map[string]any{"model": "alpha", "intensities": x}, &after); code != http.StatusOK {
		t.Fatalf("predict after reload: %d (%s)", code, after.Error)
	}
	same := true
	for i := range before.Fractions {
		if before.Fractions[i] != after.Fractions[i] {
			same = false
		}
	}
	if same {
		t.Fatal("reload with new weights must change predictions")
	}
	if code := post(t, h, "/v1/predict", map[string]any{"model": "beta", "intensities": x}, nil); code != http.StatusOK {
		t.Fatalf("predict on new model: %d", code)
	}

	// removing a file drops its model on the next reload
	if err := os.Remove(filepath.Join(dir, "beta.json")); err != nil {
		t.Fatal(err)
	}
	if code := post(t, h, "/v1/models/reload", map[string]any{}, nil); code != http.StatusOK {
		t.Fatalf("second reload: %d", code)
	}
	if code := post(t, h, "/v1/predict", map[string]any{"model": "beta", "intensities": x}, nil); code != http.StatusNotFound {
		t.Fatalf("predict on dropped model: %d, want 404", code)
	}
}

func TestServerRejectsAfterClose(t *testing.T) {
	srv, _ := testServer(t, Config{})
	ctx, cancel := testContext(t, 30*time.Second)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if code := post(t, srv.Handler(), "/v1/predict",
		map[string]any{"intensities": ramp(24, 0)}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("predict after close: %d, want 503", code)
	}
}
