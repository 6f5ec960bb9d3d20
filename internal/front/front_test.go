package front

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"specml/internal/nn"
	"specml/internal/rng"
	"specml/internal/serve"
)

// fleetBackend is one in-process specserve: the serve.Server plus the
// httptest listener in front of it.
type fleetBackend struct {
	srv  *serve.Server
	http *httptest.Server
	name string // host:port — what the ring and BackendHeader call it
}

func testModel(t testing.TB, seed uint64, inLen, outLen int) *nn.Model {
	t.Helper()
	m := nn.NewModel()
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

// newFleet boots n real specserve backends on loopback listeners, each
// serving the same deterministic "test" model, and a Front over them.
// mutate adjusts the front config before New.
func newFleet(t testing.TB, n int, mutate func(*Config)) (*Front, []*fleetBackend) {
	t.Helper()
	backends := make([]*fleetBackend, n)
	urls := make([]string, n)
	for i := range backends {
		srv, err := serve.New(serve.Config{RequestTimeout: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Registry().Register("test", testModel(t, 42, 24, 3)); err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		backends[i] = &fleetBackend{srv: srv, http: hs, name: hs.Listener.Addr().String()}
		urls[i] = hs.URL
		t.Cleanup(func() {
			hs.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = srv.Close(ctx)
		})
	}
	cfg := Config{
		Backends:       urls,
		HealthInterval: 50 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
		SessionPrefix:  "fs-test",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = f.Close(ctx)
	})
	return f, backends
}

func rampN(n int, phase float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 0.1 + 0.9*float64((i*7+int(phase*13))%n)/float64(n)
	}
	return x
}

// doJSON posts a JSON body through the front and decodes the response.
func doJSON(t testing.TB, h http.Handler, method, path string, body, out any) (int, http.Header) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	}
	req := httptest.NewRequest(method, path, rd)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("%s %s: bad JSON response %q: %v", method, path, rec.Body.String(), err)
		}
	}
	return rec.Code, rec.Header()
}

type predictOut struct {
	Model     string    `json:"model"`
	Fractions []float64 `json:"fractions"`
	Error     string    `json:"error"`
}

// TestFrontPredictRouting: predicts for one model consistently land on one
// backend (so its micro-batcher coalesces them), and the numbers match a
// direct backend call bit for bit despite the binary hop in between.
func TestFrontPredictRouting(t *testing.T) {
	f, backends := newFleet(t, 3, nil)
	x := rampN(173, 2)

	var direct predictOut
	if code, _ := doJSON(t, backends[0].srv.Handler(), http.MethodPost, "/v1/predict",
		map[string]any{"model": "test", "intensities": x}, &direct); code != http.StatusOK {
		t.Fatalf("direct predict: %d (%s)", code, direct.Error)
	}

	owner := ""
	for i := 0; i < 10; i++ {
		var out predictOut
		code, hdr := doJSON(t, f.Handler(), http.MethodPost, "/v1/predict",
			map[string]any{"model": "test", "intensities": x}, &out)
		if code != http.StatusOK {
			t.Fatalf("front predict %d: status %d (%s)", i, code, out.Error)
		}
		b := hdr.Get(BackendHeader)
		if b == "" {
			t.Fatal("front predict: missing backend attribution header")
		}
		if owner == "" {
			owner = b
		} else if b != owner {
			t.Fatalf("model routing flapped: %s then %s", owner, b)
		}
		if !reflect.DeepEqual(out.Fractions, direct.Fractions) {
			t.Fatalf("front fractions %v != direct %v", out.Fractions, direct.Fractions)
		}
	}
	if owner != f.Ring().Lookup("test") {
		t.Fatalf("served by %s, ring says %s", owner, f.Ring().Lookup("test"))
	}
}

// TestFrontFailover: killing the backend that owns a model must cost zero
// 5xx — requests fail over to the next ring replica, and the dead backend
// drops out of the fleet view.
func TestFrontFailover(t *testing.T) {
	f, backends := newFleet(t, 3, nil)
	x := rampN(64, 1)
	body := map[string]any{"model": "test", "intensities": x}

	var out predictOut
	code, hdr := doJSON(t, f.Handler(), http.MethodPost, "/v1/predict", body, &out)
	if code != http.StatusOK {
		t.Fatalf("warm-up predict: %d (%s)", code, out.Error)
	}
	owner := hdr.Get(BackendHeader)

	for _, b := range backends {
		if b.name == owner {
			b.http.CloseClientConnections()
			b.http.Close()
		}
	}

	for i := 0; i < 20; i++ {
		var out predictOut
		code, hdr := doJSON(t, f.Handler(), http.MethodPost, "/v1/predict", body, &out)
		if code >= 500 {
			t.Fatalf("predict %d after kill: %d (%s) — failover must not surface 5xx", i, code, out.Error)
		}
		if code != http.StatusOK {
			t.Fatalf("predict %d after kill: %d (%s)", i, code, out.Error)
		}
		if got := hdr.Get(BackendHeader); got == owner {
			t.Fatalf("predict %d still attributed to the dead backend %s", i, owner)
		}
	}

	// The prober notices within a few intervals and the fleet view drops
	// to 2 healthy backends.
	deadline := time.Now().Add(3 * time.Second)
	for {
		var fleet struct {
			Healthy int `json:"healthy"`
		}
		if code, _ := doJSON(t, f.Handler(), http.MethodGet, "/v1/fleet", nil, &fleet); code != http.StatusOK {
			t.Fatalf("fleet status: %d", code)
		}
		if fleet.Healthy == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet still reports %d healthy backends after kill", fleet.Healthy)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestFrontSessionStickiness: monitor sessions route by session ID, so
// every step of a session lands on the backend holding its smoothing
// state — while different sessions spread across the fleet.
func TestFrontSessionStickiness(t *testing.T) {
	f, _ := newFleet(t, 3, nil)
	h := f.Handler()
	x := rampN(24, 0)

	type sess struct{ id, backend string }
	var sessions []sess
	for i := 0; i < 16; i++ {
		var created struct {
			Session string `json:"session"`
			Error   string `json:"error"`
		}
		code, hdr := doJSON(t, h, http.MethodPost, "/v1/monitor",
			map[string]any{"model": "test", "smoothing": 0.5}, &created)
		if code != http.StatusOK {
			t.Fatalf("monitor create %d: %d (%s)", i, code, created.Error)
		}
		if created.Session == "" {
			t.Fatalf("monitor create %d: no session ID", i)
		}
		sessions = append(sessions, sess{created.Session, hdr.Get(BackendHeader)})
	}

	spread := make(map[string]int)
	for _, s := range sessions {
		if s.backend != f.Ring().Lookup(s.id) {
			t.Fatalf("session %s created on %s, ring owner is %s", s.id, s.backend, f.Ring().Lookup(s.id))
		}
		spread[s.backend]++
		for step := 1; step <= 3; step++ {
			var out struct {
				Step  int    `json:"step"`
				Error string `json:"error"`
			}
			code, hdr := doJSON(t, h, http.MethodPost, "/v1/monitor/"+s.id+"/step",
				map[string]any{"intensities": x}, &out)
			if code != http.StatusOK {
				t.Fatalf("session %s step %d: %d (%s)", s.id, step, code, out.Error)
			}
			if got := hdr.Get(BackendHeader); got != s.backend {
				t.Fatalf("session %s step %d served by %s, created on %s — state would be lost", s.id, step, got, s.backend)
			}
			if out.Step != step {
				t.Fatalf("session %s: step counter %d, want %d — state not sticky", s.id, out.Step, step)
			}
		}
		// Status and close route by the same key.
		code, hdr := doJSON(t, h, http.MethodGet, "/v1/monitor/"+s.id, nil, nil)
		if code != http.StatusOK || hdr.Get(BackendHeader) != s.backend {
			t.Fatalf("session %s status: %d via %s", s.id, code, hdr.Get(BackendHeader))
		}
	}
	if len(spread) < 2 {
		t.Fatalf("16 sessions all landed on one backend: %v", spread)
	}

	var list struct {
		Sessions []string `json:"sessions"`
	}
	if code, _ := doJSON(t, h, http.MethodGet, "/v1/monitor", nil, &list); code != http.StatusOK {
		t.Fatalf("monitor list: %d", code)
	}
	if len(list.Sessions) != len(sessions) {
		t.Fatalf("monitor list has %d sessions, created %d", len(list.Sessions), len(sessions))
	}
}

// TestFrontShed: when every candidate backend is over the queue-depth
// threshold, the front refuses with 429 + Retry-After instead of piling on.
func TestFrontShed(t *testing.T) {
	f, _ := newFleet(t, 2, func(c *Config) {
		c.ShedQueueDepth = 4
		c.HealthInterval = time.Hour // freeze scraped state for the test
	})
	for _, b := range f.backends {
		b.queueDepth.Store(10)
	}
	var out struct {
		Error string `json:"error"`
	}
	code, hdr := doJSON(t, f.Handler(), http.MethodPost, "/v1/predict",
		map[string]any{"model": "test", "intensities": rampN(24, 0)}, &out)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated fleet: status %d (%s), want 429", code, out.Error)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if f.mxShed.Value() == 0 {
		t.Fatal("shed counter not incremented")
	}

	// One backend recovering reopens admission.
	f.backends[0].queueDepth.Store(0)
	var ok predictOut
	if code, _ := doJSON(t, f.Handler(), http.MethodPost, "/v1/predict",
		map[string]any{"model": "test", "intensities": rampN(24, 0)}, &ok); code != http.StatusOK {
		t.Fatalf("recovered fleet: status %d (%s)", code, ok.Error)
	}
}

// stepSession steps a monitor session through the front and requires a 200
// from the backend named holder with the step counter at want.
func stepSession(t *testing.T, h http.Handler, id, holder string, want int) {
	t.Helper()
	var out struct {
		Step  int    `json:"step"`
		Error string `json:"error"`
	}
	code, hdr := doJSON(t, h, http.MethodPost, "/v1/monitor/"+id+"/step",
		map[string]any{"intensities": rampN(24, 0)}, &out)
	if code != http.StatusOK {
		t.Fatalf("session %s step %d: %d (%s)", id, want, code, out.Error)
	}
	if got := hdr.Get(BackendHeader); got != holder {
		t.Fatalf("session %s step %d served by %s, session lives on %s", id, want, got, holder)
	}
	if out.Step != want {
		t.Fatalf("session %s: step counter %d, want %d", id, out.Step, want)
	}
}

// TestFrontMisplacedSessionFound: a session whose create failed over past
// an unhealthy ring owner stays reachable once the owner is back. The
// owner's 404 sends each follow-up request on to the replica that holds
// the session, and a 404 reaches the client only when no replica does.
func TestFrontMisplacedSessionFound(t *testing.T) {
	f, _ := newFleet(t, 2, func(c *Config) {
		c.HealthInterval = time.Hour // freeze health state for the test
	})
	h := f.Handler()
	const id = "misplaced"
	owner := f.byName[f.Ring().Lookup(id)]
	owner.healthy.Store(false)
	var created struct {
		Session string `json:"session"`
		Error   string `json:"error"`
	}
	code, hdr := doJSON(t, h, http.MethodPost, "/v1/monitor",
		map[string]any{"model": "test", "session": id}, &created)
	if code != http.StatusOK {
		t.Fatalf("create: %d (%s)", code, created.Error)
	}
	holder := hdr.Get(BackendHeader)
	if holder == owner.name {
		t.Fatalf("create landed on the unhealthy owner %s", holder)
	}
	owner.healthy.Store(true)

	retries := f.mxRetries.Value()
	for step := 1; step <= 3; step++ {
		stepSession(t, h, id, holder, step)
	}
	if got := f.mxRetries.Value() - retries; got != 3 {
		t.Fatalf("3 steps past the owner's 404 counted %d retries, want 3", got)
	}
	if code, hdr := doJSON(t, h, http.MethodGet, "/v1/monitor/"+id, nil, nil); code != http.StatusOK || hdr.Get(BackendHeader) != holder {
		t.Fatalf("status: %d via %s, want 200 via %s", code, hdr.Get(BackendHeader), holder)
	}
	if code, hdr := doJSON(t, h, http.MethodDelete, "/v1/monitor/"+id, nil, nil); code != http.StatusOK || hdr.Get(BackendHeader) != holder {
		t.Fatalf("close: %d via %s, want 200 via %s", code, hdr.Get(BackendHeader), holder)
	}
	if code, _ := doJSON(t, h, http.MethodPost, "/v1/monitor/"+id+"/step",
		map[string]any{"intensities": rampN(24, 0)}, nil); code != http.StatusNotFound {
		t.Fatalf("step of a closed session: %d, want 404", code)
	}
}

// ownedID returns the first ID "prefix-N" whose ring owner is backend.
func ownedID(f *Front, prefix, backend string) string {
	for i := 0; ; i++ {
		if id := fmt.Sprintf("%s-%d", prefix, i); f.Ring().Lookup(id) == backend {
			return id
		}
	}
}

// TestFrontLostSessionAnswers404: when the backend that held a session is
// killed or draining, every request for the session answers the
// survivor's 404, not the lost backend's transport error or 503. So does a
// session that never existed, whichever replica owns its ID. Sessions on
// the survivor keep stepping.
func TestFrontLostSessionAnswers404(t *testing.T) {
	for _, mode := range []string{"killed", "draining"} {
		t.Run(mode, func(t *testing.T) {
			f, backends := newFleet(t, 2, func(c *Config) {
				c.HealthInterval = time.Hour // freeze health state for the test
			})
			h := f.Handler()
			victim, survivor := backends[0], backends[1]
			lost, kept := ownedID(f, "sess", victim.name), ownedID(f, "sess", survivor.name)
			for _, id := range []string{lost, kept} {
				if code, _ := doJSON(t, h, http.MethodPost, "/v1/monitor",
					map[string]any{"model": "test", "session": id}, nil); code != http.StatusOK {
					t.Fatalf("create %s: %d", id, code)
				}
			}
			stepSession(t, h, lost, victim.name, 1)

			switch mode {
			case "killed":
				victim.http.CloseClientConnections()
				victim.http.Close()
			case "draining":
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := victim.srv.Close(ctx); err != nil {
					t.Fatal(err)
				}
			}

			for _, id := range []string{lost, ownedID(f, "never", victim.name), ownedID(f, "never", survivor.name)} {
				for _, req := range []struct {
					method, path string
					body         any
				}{
					{http.MethodPost, "/v1/monitor/" + id + "/step", map[string]any{"intensities": rampN(24, 0)}},
					{http.MethodGet, "/v1/monitor/" + id, nil},
					{http.MethodDelete, "/v1/monitor/" + id, nil},
				} {
					var out struct {
						Error string `json:"error"`
					}
					code, hdr := doJSON(t, h, req.method, req.path, req.body, &out)
					if code != http.StatusNotFound || hdr.Get(BackendHeader) != survivor.name {
						t.Fatalf("%s %s with the other backend %s: %d via %q (%s), want 404 via %s",
							req.method, req.path, mode, code, hdr.Get(BackendHeader), out.Error, survivor.name)
					}
				}
			}
			stepSession(t, h, kept, survivor.name, 1)
		})
	}
}

// TestFrontSessionTimeoutRelayed: a backend looks a session up before it
// queues a step, so a 504 comes from the replica that holds the session.
// The front relays it rather than asking a replica that would answer 404.
func TestFrontSessionTimeoutRelayed(t *testing.T) {
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/monitor/") {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusGatewayTimeout)
			_, _ = io.WriteString(w, `{"error":"serve: context deadline exceeded"}`)
			return
		}
		w.WriteHeader(http.StatusOK) // health and metrics probes
	}))
	t.Cleanup(stub.Close)
	stubName := stub.Listener.Addr().String()
	f, backends := newFleet(t, 1, func(c *Config) {
		c.Backends = append(c.Backends, stub.URL)
		c.HealthInterval = time.Hour // freeze health state for the test
	})
	for _, owner := range []string{stubName, backends[0].name} {
		id := ownedID(f, "slow", owner)
		code, hdr := doJSON(t, f.Handler(), http.MethodPost, "/v1/monitor/"+id+"/step",
			map[string]any{"intensities": rampN(24, 0)}, nil)
		if code != http.StatusGatewayTimeout || hdr.Get(BackendHeader) != stubName {
			t.Fatalf("step of %s (ring owner %s): %d via %q, want 504 via %s", id, owner, code, hdr.Get(BackendHeader), stubName)
		}
	}
}

// TestFrontSessionStepNotShed: only the replica that holds a session can
// answer for it, so a step goes to its backend even when that backend is
// over the shed threshold. A saturated fleet still refuses it with 429.
func TestFrontSessionStepNotShed(t *testing.T) {
	f, _ := newFleet(t, 2, func(c *Config) {
		c.ShedQueueDepth = 4
		c.HealthInterval = time.Hour // freeze scraped state for the test
	})
	h := f.Handler()
	var created struct {
		Session string `json:"session"`
		Error   string `json:"error"`
	}
	code, hdr := doJSON(t, h, http.MethodPost, "/v1/monitor", map[string]any{"model": "test"}, &created)
	if code != http.StatusOK {
		t.Fatalf("create: %d (%s)", code, created.Error)
	}
	holder := hdr.Get(BackendHeader)
	f.byName[holder].queueDepth.Store(10)
	stepSession(t, h, created.Session, holder, 1)
	stepSession(t, h, created.Session, holder, 2)

	for _, b := range f.backends {
		b.queueDepth.Store(10)
	}
	code, hdr = doJSON(t, h, http.MethodPost, "/v1/monitor/"+created.Session+"/step",
		map[string]any{"intensities": rampN(24, 0)}, nil)
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("step on a saturated fleet: %d (Retry-After %q), want 429 with a hint", code, hdr.Get("Retry-After"))
	}
}

// TestFrontBinaryClient: an SPB1 client gets SPB1 end to end through the
// front, with fractions identical to the JSON path.
func TestFrontBinaryClient(t *testing.T) {
	f, _ := newFleet(t, 3, nil)
	x := rampN(173, 2)

	var viaJSON predictOut
	if code, _ := doJSON(t, f.Handler(), http.MethodPost, "/v1/predict",
		map[string]any{"model": "test", "intensities": x}, &viaJSON); code != http.StatusOK {
		t.Fatalf("JSON predict: %d (%s)", code, viaJSON.Error)
	}

	frame, err := serve.AppendPredictRequestBinary(nil, &serve.PredictRequest{Model: "test", Intensities: x})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(frame))
	req.Header.Set("Content-Type", serve.BinaryContentType)
	req.Header.Set("Accept", serve.BinaryContentType)
	rec := httptest.NewRecorder()
	f.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("binary predict: %d %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != serve.BinaryContentType {
		t.Fatalf("binary client got Content-Type %q", ct)
	}
	model, y, err := serve.ParsePredictResponseBinary(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if model != "test" || !reflect.DeepEqual(y, viaJSON.Fractions) {
		t.Fatalf("binary path: %q %v, JSON path: %v", model, y, viaJSON.Fractions)
	}
}

// TestFrontTranscoding: every client/hop codec combination returns the
// same fractions — the front transcodes whenever the codecs differ.
func TestFrontTranscoding(t *testing.T) {
	x := rampN(96, 3)
	var want []float64
	for _, jsonHops := range []bool{false, true} {
		name := map[bool]string{false: "binary hops", true: "json hops"}[jsonHops]
		t.Run(name, func(t *testing.T) {
			f, _ := newFleet(t, 2, func(c *Config) { c.JSONHops = jsonHops })
			// JSON client.
			var out predictOut
			if code, _ := doJSON(t, f.Handler(), http.MethodPost, "/v1/predict",
				map[string]any{"model": "test", "intensities": x}, &out); code != http.StatusOK {
				t.Fatalf("JSON client: %d (%s)", code, out.Error)
			}
			if want == nil {
				want = out.Fractions
			}
			if !reflect.DeepEqual(out.Fractions, want) {
				t.Fatalf("JSON client fractions drifted: %v != %v", out.Fractions, want)
			}
			// Binary client.
			frame, err := serve.AppendPredictRequestBinary(nil, &serve.PredictRequest{Model: "test", Intensities: x})
			if err != nil {
				t.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(frame))
			req.Header.Set("Content-Type", serve.BinaryContentType)
			req.Header.Set("Accept", serve.BinaryContentType)
			rec := httptest.NewRecorder()
			f.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("binary client: %d %s", rec.Code, rec.Body.String())
			}
			_, y, err := serve.ParsePredictResponseBinary(rec.Body.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(y, want) {
				t.Fatalf("binary client fractions drifted: %v != %v", y, want)
			}
		})
	}
}

// TestFrontErrors: client mistakes come back as 4xx JSON envelopes, with
// backend errors relayed rather than wrapped into 5xx.
func TestFrontErrors(t *testing.T) {
	f, _ := newFleet(t, 2, nil)
	h := f.Handler()
	cases := []struct {
		name string
		do   func() (int, string)
		want int
	}{
		{"bad JSON", func() (int, string) {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader([]byte("{nope")))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec.Code, rec.Body.String()
		}, http.StatusBadRequest},
		{"bad frame", func() (int, string) {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader([]byte("XXXX")))
			req.Header.Set("Content-Type", serve.BinaryContentType)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			return rec.Code, rec.Body.String()
		}, http.StatusBadRequest},
		{"unknown model relayed", func() (int, string) {
			var out struct {
				Error string `json:"error"`
			}
			code, _ := doJSON(t, h, http.MethodPost, "/v1/predict",
				map[string]any{"model": "no-such", "intensities": rampN(8, 0)}, &out)
			return code, out.Error
		}, http.StatusNotFound},
		{"unknown session relayed", func() (int, string) {
			var out struct {
				Error string `json:"error"`
			}
			code, _ := doJSON(t, h, http.MethodPost, "/v1/monitor/nope/step",
				map[string]any{"intensities": rampN(24, 0)}, &out)
			return code, out.Error
		}, http.StatusNotFound},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			code, body := c.do()
			if code != c.want {
				t.Fatalf("status %d (%s), want %d", code, body, c.want)
			}
			var env map[string]any
			if err := json.Unmarshal([]byte(body), &env); err == nil {
				if _, ok := env["error"]; !ok && body != "" {
					t.Fatalf("error response without envelope: %q", body)
				}
			}
		})
	}
}

// TestFrontModelsAndClose: /v1/models proxies the shared model directory;
// a closed front refuses new work with 503.
func TestFrontModelsAndClose(t *testing.T) {
	f, _ := newFleet(t, 2, nil)
	var models struct {
		Models []map[string]any `json:"models"`
	}
	if code, _ := doJSON(t, f.Handler(), http.MethodGet, "/v1/models", nil, &models); code != http.StatusOK {
		t.Fatalf("models: %d", code)
	}
	if len(models.Models) != 1 {
		t.Fatalf("models: %+v", models)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.Close(ctx); err != nil {
		t.Fatal(err)
	}
	code, _ := doJSON(t, f.Handler(), http.MethodGet, "/v1/models", nil, nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("request after Close: %d, want 503", code)
	}
}
