package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

func TestWireRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		req  PredictRequest
	}{
		{"minimal", PredictRequest{Intensities: []float64{1, 2, 3}}},
		{"model", PredictRequest{Model: "ms-demo", Intensities: []float64{0.5, 0.25, 0.25}}},
		{"axis", PredictRequest{Model: "m", Axis: &Axis{Start: 10, Step: 0.5}, Intensities: []float64{1, 0}}},
		{"normalize", PredictRequest{Normalize: "max", Intensities: []float64{3, 1}}},
		{"none", PredictRequest{Normalize: "none", Intensities: []float64{0}}},
		{"area", PredictRequest{Normalize: "area", Axis: &Axis{Start: -2, Step: 0.125}, Intensities: ramp(4096, 1)}},
		{"special values", PredictRequest{Intensities: []float64{math.Inf(1), math.NaN(), -0.0, 1e-308}}},
		{"empty spectrum", PredictRequest{Model: "m", Intensities: []float64{}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			frame, err := AppendPredictRequestBinary(nil, &c.req)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ParsePredictRequestBinary(frame)
			if err != nil {
				t.Fatal(err)
			}
			// NaN breaks DeepEqual; compare bit patterns instead.
			if len(got.Intensities) != len(c.req.Intensities) {
				t.Fatalf("round trip changed length: %d -> %d", len(c.req.Intensities), len(got.Intensities))
			}
			for i := range got.Intensities {
				if math.Float64bits(got.Intensities[i]) != math.Float64bits(c.req.Intensities[i]) {
					t.Fatalf("intensity[%d] %v != %v", i, got.Intensities[i], c.req.Intensities[i])
				}
			}
			got.Intensities, c.req.Intensities = nil, nil
			if !reflect.DeepEqual(got, c.req) {
				t.Fatalf("round trip changed request: %+v != %+v", got, c.req)
			}

			model, err := BinaryRequestModel(frame)
			if err != nil {
				t.Fatal(err)
			}
			if model != c.req.Model {
				t.Fatalf("BinaryRequestModel = %q, want %q", model, c.req.Model)
			}
		})
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	frame, err := AppendPredictResponseBinary(nil, "ms-demo", []float64{0.5, 0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	model, y, err := ParsePredictResponseBinary(frame)
	if err != nil {
		t.Fatal(err)
	}
	if model != "ms-demo" || !reflect.DeepEqual(y, []float64{0.5, 0.25, 0.25}) {
		t.Fatalf("response round trip: %q %v", model, y)
	}
}

// TestWireDecodeErrors: every malformed frame shape is rejected with an
// error — and an absurd declared count fails before any allocation could
// happen (the parser checks the count against the bytes actually present).
func TestWireDecodeErrors(t *testing.T) {
	valid, err := AppendPredictRequestBinary(nil, &PredictRequest{Model: "m", Intensities: []float64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func([]byte)) []byte {
		b := append([]byte(nil), valid...)
		mutate(b)
		return b
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"short header", []byte("SPB")},
		{"bad magic", corrupt(func(b []byte) { b[0] = 'X' })},
		{"bad version", corrupt(func(b []byte) { b[4] = 9 })},
		{"wrong kind", corrupt(func(b []byte) { b[5] = frameKindFraction })},
		{"unknown normalize", corrupt(func(b []byte) { b[6] = 99 })},
		{"unknown flags", corrupt(func(b []byte) { b[7] = 0x80 })},
		{"truncated model", valid[:9]},
		{"truncated count", valid[:len(valid)-17]},
		{"truncated payload", valid[:len(valid)-1]},
		{"trailing bytes", append(append([]byte(nil), valid...), 0)},
		{"absurd count", corrupt(func(b []byte) {
			// Count field sits right after the 1-byte model; claim 2^31
			// samples with only 16 payload bytes behind it.
			off := wireHeaderLen + 3 + 1
			b[off], b[off+1], b[off+2], b[off+3] = 0, 0, 0, 0x80
		})},
		{"count beyond payload", corrupt(func(b []byte) {
			off := wireHeaderLen + 3 + 1
			b[off] = 3 // declares 3 samples, payload holds 2
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParsePredictRequestBinary(c.data); err == nil {
				t.Fatalf("ParsePredictRequestBinary accepted %q", c.data)
			}
		})
	}
}

// TestBinaryPredictEquivalence pins the codec contract: the same spectrum
// sent as JSON and as an SPB1 frame produces bitwise-identical fractions,
// and a binary-accepting client gets those fractions back as a parseable
// kind-2 frame.
func TestBinaryPredictEquivalence(t *testing.T) {
	srv, _ := testServer(t, Config{})
	h := srv.Handler()
	x := ramp(173, 2) // resampled onto the model's 24-wide axis either way

	var jsonResp predictResponse
	if code := post(t, h, "/v1/predict", map[string]any{"model": "test", "intensities": x}, &jsonResp); code != http.StatusOK {
		t.Fatalf("JSON predict: %d (%s)", code, jsonResp.Error)
	}

	frame, err := AppendPredictRequestBinary(nil, &PredictRequest{Model: "test", Intensities: x})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(frame))
	req.Header.Set("Content-Type", BinaryContentType)
	req.Header.Set("Accept", BinaryContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("binary predict: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != BinaryContentType {
		t.Fatalf("binary predict content type %q", ct)
	}
	model, y, err := ParsePredictResponseBinary(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if model != "test" {
		t.Fatalf("binary response model %q", model)
	}
	if !reflect.DeepEqual(y, jsonResp.Fractions) {
		t.Fatalf("binary fractions %v != JSON fractions %v", y, jsonResp.Fractions)
	}

	// Binary request + JSON response (no Accept header): same numbers.
	req = httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(frame))
	req.Header.Set("Content-Type", BinaryContentType)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("binary-in JSON-out predict: %d %s", rec.Code, rec.Body.String())
	}
	var mixed predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mixed); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mixed.Fractions, jsonResp.Fractions) {
		t.Fatalf("mixed-codec fractions %v != %v", mixed.Fractions, jsonResp.Fractions)
	}
}

// TestBinaryErrorsAreJSON: a malformed binary body is a 400 with the JSON
// error envelope — binary negotiation never changes the error contract.
func TestBinaryErrorsAreJSON(t *testing.T) {
	srv, _ := testServer(t, Config{})
	h := srv.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader([]byte("XXXXXXXXXX")))
	req.Header.Set("Content-Type", BinaryContentType)
	req.Header.Set("Accept", BinaryContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad frame: status %d", rec.Code)
	}
	var env map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env["error"] == "" {
		t.Fatalf("bad frame: no JSON error envelope: %q", rec.Body.String())
	}
}

// TestBinaryMonitorStep: monitor steps accept SPB1 request bodies (the
// response stays JSON — alarms don't have a binary encoding).
func TestBinaryMonitorStep(t *testing.T) {
	srv, _ := testServer(t, Config{})
	h := srv.Handler()
	var mon struct {
		Session string `json:"session"`
	}
	if code := post(t, h, "/v1/monitor", map[string]any{"model": "test", "smoothing": 0.5}, &mon); code != http.StatusOK {
		t.Fatalf("monitor create: %d", code)
	}
	frame, err := AppendPredictRequestBinary(nil, &PredictRequest{Intensities: ramp(24, 0)})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/monitor/"+mon.Session+"/step", bytes.NewReader(frame))
	req.Header.Set("Content-Type", BinaryContentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("binary step: %d %s", rec.Code, rec.Body.String())
	}
	var step struct {
		Step       int       `json:"step"`
		Prediction []float64 `json:"prediction"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &step); err != nil {
		t.Fatal(err)
	}
	if step.Step != 1 || len(step.Prediction) != 3 {
		t.Fatalf("binary step response: %+v", step)
	}
}

// TestSessionIDSupplied: a front door can mint the session ID itself; the
// server honors it, refuses duplicates with 409 and malformed IDs with 400.
func TestSessionIDSupplied(t *testing.T) {
	srv, _ := testServer(t, Config{})
	h := srv.Handler()
	var mon struct {
		Session string `json:"session"`
		Error   string `json:"error"`
	}
	body := map[string]any{"model": "test", "session": "fs-00c0ffee-000001", "smoothing": 0.5}
	if code := post(t, h, "/v1/monitor", body, &mon); code != http.StatusOK {
		t.Fatalf("create with ID: %d (%s)", code, mon.Error)
	}
	if mon.Session != "fs-00c0ffee-000001" {
		t.Fatalf("server replaced supplied session ID with %q", mon.Session)
	}
	if code := post(t, h, "/v1/monitor", body, &mon); code != http.StatusConflict {
		t.Fatalf("duplicate ID: status %d, want 409", code)
	}
	for _, bad := range []string{"has space", "semi;colon", "x/y", string(make([]byte, maxSessionIDLen+1))} {
		if code := post(t, h, "/v1/monitor", map[string]any{"model": "test", "session": bad}, &mon); code != http.StatusBadRequest {
			t.Fatalf("invalid ID %q: status %d, want 400", bad, code)
		}
	}
	// The minted session works end to end.
	var step struct {
		Step int `json:"step"`
	}
	if code := post(t, h, "/v1/monitor/fs-00c0ffee-000001/step", map[string]any{"intensities": ramp(24, 0)}, &step); code != http.StatusOK || step.Step != 1 {
		t.Fatalf("step on supplied-ID session: %d %+v", code, step)
	}
}
