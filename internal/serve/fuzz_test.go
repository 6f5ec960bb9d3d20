package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzPredictRequest throws hostile bodies at the /v1/predict decoder.
// The contract under fuzz: malformed input yields a 4xx JSON error
// envelope — never a panic, never a 5xx, never a non-JSON body.
func FuzzPredictRequest(f *testing.F) {
	srv, _ := testServer(f, Config{RequestTimeout: 2 * time.Second})
	h := srv.Handler()

	f.Add([]byte(`{"model":"test","intensities":[0.1,0.2,0.3]}`))
	f.Add([]byte(`{"intensities":[1,2,3],"axis":{"start":1,"step":0.5}}`))
	f.Add([]byte(`{"model":"test","intensities":[],"normalize":"max"}`))
	f.Add([]byte(`{"model":"nope","intensities":[1e308,-1e308]}`))
	f.Add([]byte(`{"model":"test","intensities":[1e999]}`))
	f.Add([]byte(`{"intensities":"notanarray"}`))
	f.Add([]byte(`{nope`))
	f.Add([]byte(``))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"model":"test","intensities":[0.1,0.2],"axis":{"start":1e308,"step":1e308}}`))
	f.Add([]byte(`{"model":"test","intensities":[1,2,3]}{"more":1}`))

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("5xx for body %q: %d %s", body, rec.Code, rec.Body.String())
		}
		var parsed map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
			t.Fatalf("non-JSON response for body %q: %q", body, rec.Body.String())
		}
		if rec.Code == http.StatusOK {
			fr, ok := parsed["fractions"].([]any)
			if !ok {
				t.Fatalf("200 without fractions for body %q: %q", body, rec.Body.String())
			}
			for _, v := range fr {
				x, ok := v.(float64)
				if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
					t.Fatalf("non-finite fraction for body %q: %v", body, fr)
				}
			}
		} else if _, ok := parsed["error"]; !ok {
			t.Fatalf("%d without error envelope for body %q: %q", rec.Code, body, rec.Body.String())
		}
	})
}

// FuzzWirePredictRequest throws hostile bytes at the SPB1 binary decoder,
// directly and through the HTTP handler. The contract: truncated frames,
// bad magic and absurd length prefixes are 4xx — never a panic, never a
// 5xx, and never an allocation larger than the frame itself justifies (an
// oversized declared count must fail before the sample slice is made).
func FuzzWirePredictRequest(f *testing.F) {
	srv, _ := testServer(f, Config{RequestTimeout: 2 * time.Second})
	h := srv.Handler()

	if valid, err := AppendPredictRequestBinary(nil, &PredictRequest{Model: "test", Intensities: []float64{1, 2, 3}}); err == nil {
		f.Add(valid)
		f.Add(valid[:len(valid)-5])                     // truncated payload
		f.Add(append(append([]byte(nil), valid...), 7)) // trailing byte
	}
	f.Add([]byte("SPB1"))
	f.Add([]byte{'S', 'P', 'B', '1', 1, 1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}) // absurd count
	f.Add([]byte{'S', 'P', 'B', '1', 2, 1, 0, 0, 0})                         // wrong version
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		// Direct decoder: must not panic; on success the decoded slice is
		// bounded by the input frame (8 bytes per sample), so a hostile
		// length prefix cannot cause an oversized allocation.
		if req, err := ParsePredictRequestBinary(body); err == nil {
			if 8*len(req.Intensities) > len(body) {
				t.Fatalf("decoded %d samples from a %d-byte frame", len(req.Intensities), len(body))
			}
		}
		// The response parser shares the no-panic contract; arbitrary bytes
		// may or may not decode, either outcome is fine.
		_, _, _ = ParsePredictResponseBinary(body)

		req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
		req.Header.Set("Content-Type", BinaryContentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("5xx for frame %q: %d %s", body, rec.Code, rec.Body.String())
		}
		if rec.Code != http.StatusOK {
			var parsed map[string]any
			if err := json.Unmarshal(rec.Body.Bytes(), &parsed); err != nil {
				t.Fatalf("non-JSON error response for frame %q: %q", body, rec.Body.String())
			}
			if _, ok := parsed["error"]; !ok {
				t.Fatalf("%d without error envelope for frame %q", rec.Code, body)
			}
		}
	})
}
