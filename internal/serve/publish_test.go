package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// saveModelBytes serializes a model the way a retrainer would before
// publishing.
func saveModelBytes(t testing.TB, seed uint64, inLen, outLen int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := testModel(t, seed, inLen, outLen).Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// newPublishServer builds a server with a real model directory holding one
// model named "pub".
func newPublishServer(t *testing.T) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "pub.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := testModel(t, 1, 24, 3).Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{ModelDir: dir, RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := testContext(t, 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	})
	return srv, dir
}

func doPublish(t *testing.T, h http.Handler, name string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPut, "/v1/models/"+name, bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func TestPublishSwapsLiveModel(t *testing.T) {
	srv, dir := newPublishServer(t)
	// New weights, new input width: the listing must advertise it and the
	// file must land in the directory so a reload elsewhere finds it.
	w := doPublish(t, srv.Handler(), "pub", saveModelBytes(t, 2, 48, 3))
	if w.Code != http.StatusOK {
		t.Fatalf("publish: %d %s", w.Code, w.Body.String())
	}
	var resp struct {
		Published ModelInfo `json:"published"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Published.Name != "pub" || resp.Published.InputLen != 48 {
		t.Fatalf("unexpected publish response %+v", resp.Published)
	}
	infos := srv.Registry().List()
	if len(infos) != 1 || infos[0].InputLen != 48 {
		t.Fatalf("registry did not swap: %+v", infos)
	}
	data, err := os.ReadFile(filepath.Join(dir, "pub.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, saveModelBytes(t, 2, 48, 3)) {
		t.Fatal("published file does not hold the published bytes")
	}
	// A reload from the directory keeps the published weights.
	if _, err := srv.Registry().ReloadDir(); err != nil {
		t.Fatal(err)
	}
	if infos := srv.Registry().List(); infos[0].InputLen != 48 {
		t.Fatalf("reload lost the published weights: %+v", infos)
	}
}

func TestPublishNewName(t *testing.T) {
	srv, _ := newPublishServer(t)
	w := doPublish(t, srv.Handler(), "fresh", saveModelBytes(t, 3, 24, 4))
	if w.Code != http.StatusOK {
		t.Fatalf("publish: %d %s", w.Code, w.Body.String())
	}
	if infos := srv.Registry().List(); len(infos) != 2 {
		t.Fatalf("want 2 models after publishing a new name, got %+v", infos)
	}
	// The new model serves predictions.
	body, _ := json.Marshal(map[string]any{"model": "fresh", "intensities": make([]float64, 24)})
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("predict against published model: %d %s", rec.Code, rec.Body.String())
	}
}

func TestPublishRejectsBadInput(t *testing.T) {
	srv, dir := newPublishServer(t)
	cases := []struct {
		name   string
		model  string
		body   []byte
		status int
	}{
		{"garbage body", "pub", []byte("{not json"), http.StatusBadRequest},
		{"hidden name", ".hidden", saveModelBytes(t, 4, 24, 3), http.StatusBadRequest},
	}
	for _, c := range cases {
		w := doPublish(t, srv.Handler(), c.model, c.body)
		if w.Code != c.status {
			t.Errorf("%s: status %d, want %d (%s)", c.name, w.Code, c.status, w.Body.String())
		}
	}
	// Nothing was written besides the seed model.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "pub.json" {
		t.Fatalf("bad publishes left files behind: %v", entries)
	}
	// A registry without a model directory refuses with 409.
	nodir, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := testContext(t, 10*time.Second)
		defer cancel()
		_ = nodir.Close(ctx)
	}()
	if w := doPublish(t, nodir.Handler(), "pub", saveModelBytes(t, 4, 24, 3)); w.Code != http.StatusConflict {
		t.Fatalf("publish without model dir: %d, want 409", w.Code)
	}
}

// TestPublishWidthChange409: a request preprocessed for the old input width
// that is still queued when a publish swaps in a different width must fail
// with ErrModelReloaded (409), not crash a forward pass.
func TestPublishWidthChange409(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "pub.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := testModel(t, 1, 24, 3).Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{ModelDir: dir, RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := testContext(t, 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	}()
	// A gated model of the same width holds the dispatcher in a forward
	// pass, so the predict stays queued until the publish has landed.
	gated, gate := gatedModel(t, 1, 24, 3)
	if err := srv.Registry().Register("pub", gated); err != nil {
		t.Fatal(err)
	}
	e, err := srv.reg.get("pub")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer gate.open() // before ts.Close, which waits for the gated request

	predict := func() <-chan int {
		done := make(chan int, 1)
		go func() {
			body, _ := json.Marshal(map[string]any{"model": "pub", "intensities": make([]float64, 24)})
			resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				done <- -1
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}()
		return done
	}
	busy := predict()
	<-gate.entered
	done := predict()
	waitQueued(t, e.batcher, 1)
	w := doPublish(t, srv.Handler(), "pub", saveModelBytes(t, 2, 48, 3))
	if w.Code != http.StatusOK {
		t.Fatalf("publish: %d %s", w.Code, w.Body.String())
	}
	gate.open()
	if code := <-busy; code != http.StatusOK {
		t.Fatalf("predict in flight across the publish finished with %d, want 200", code)
	}
	select {
	case code := <-done:
		if code != http.StatusConflict {
			t.Fatalf("queued predict finished with %d, want 409", code)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("queued predict never finished")
	}
	// A fresh request resamples onto the new width and succeeds.
	body, _ := json.Marshal(map[string]any{
		"model": "pub", "axis": map[string]float64{"start": 1, "step": 0.5},
		"intensities": make([]float64, 24),
	})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-publish predict: %d", resp.StatusCode)
	}
}

func TestValidPublishName(t *testing.T) {
	good := []string{"ms-demo", "a", "model_2.v1"}
	bad := []string{"", ".", "..", "a/b", `a\b`, ".hidden", "../up"}
	for _, n := range good {
		if !validPublishName(n) {
			t.Errorf("good name %q rejected", n)
		}
	}
	for _, n := range bad {
		if validPublishName(n) {
			t.Errorf("bad name %q accepted", n)
		}
	}
}
