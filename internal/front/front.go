package front

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	rand "math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"specml/internal/obs"
	"specml/internal/serve"
)

// BackendHeader is set on every proxied response to the backend that
// answered it — how tests (and operators) observe routing decisions.
const BackendHeader = "X-Specml-Backend"

// Config parameterizes a Front.
type Config struct {
	// Backends are the specserve base URLs (e.g. http://127.0.0.1:9081).
	// At least one is required.
	Backends []string
	// VNodes is the virtual-node count per backend on the consistent-hash
	// ring (default 64).
	VNodes int
	// Retries caps how many additional ring replicas a failed hop tries
	// (default: all remaining backends).
	Retries int
	// RetryBackoff is the sleep before the first retry, doubling per
	// attempt (default 25ms).
	RetryBackoff time.Duration
	// HealthInterval is the probe period (default 1s); HealthTimeout
	// bounds one probe (default 2s).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	// FailThreshold is how many consecutive failures (probes or proxied
	// hops) take a backend out of rotation (default 2).
	FailThreshold int
	// ShedQueueDepth is the per-backend load limit for admission control:
	// when every candidate backend's queued + in-flight work reaches it,
	// the request is refused with 429 and a Retry-After hint (default 512,
	// negative disables shedding). Below that, requests skip saturated
	// backends, except requests to an existing monitor session: only the
	// backend that holds the session can answer them.
	ShedQueueDepth int
	// RetryAfter is the hint on 429 responses (default 1s).
	RetryAfter time.Duration
	// RequestTimeout bounds one backend hop (default 15s).
	RequestTimeout time.Duration
	// MaxBodyBytes caps client request bodies (default 32 MiB).
	MaxBodyBytes int64
	// JSONHops forwards to backends in JSON instead of the SPB1 binary
	// wire format. Binary hops are the default: backend decode of a dense
	// spectrum is ~100x cheaper (see BENCH_serve.json).
	JSONHops bool
	// SessionPrefix namespaces the monitor-session IDs this front mints.
	// Defaults to a random per-process prefix so two fronts (or a restart)
	// cannot collide.
	SessionPrefix string
	// Metrics receives the front's obs instruments, served at /metrics.
	// Nil creates a private registry.
	Metrics *obs.Registry
	// Logger receives structured events (backend health transitions,
	// retries exhausted). Nil discards them.
	Logger *slog.Logger
	// Transport overrides the backend HTTP transport (tests).
	Transport http.RoundTripper
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.Retries <= 0 {
		c.Retries = len(c.Backends) - 1
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.HealthTimeout <= 0 {
		c.HealthTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.ShedQueueDepth == 0 {
		c.ShedQueueDepth = 512
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.SessionPrefix == "" {
		c.SessionPrefix = fmt.Sprintf("fs-%08x", rand.Uint32())
	}
	return c
}

// Front is the fleet proxy. Create with New, serve Handler, Close to stop
// the health prober.
type Front struct {
	cfg      Config
	ring     *Ring
	backends []*backend
	byName   map[string]*backend
	client   *http.Client
	logger   *slog.Logger
	mux      *http.ServeMux

	closed     atomic.Bool
	stop       chan struct{}
	healthDone chan struct{}
	sessSeq    atomic.Int64

	mxRetries, mxShed *obs.Counter
}

// New builds a Front over the configured backends and synchronously probes
// each once, so the first request already sees real health state.
func New(cfg Config) (*Front, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("front: at least one backend is required")
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	f := &Front{
		cfg:        cfg,
		ring:       NewRing(cfg.VNodes),
		byName:     make(map[string]*backend),
		client:     &http.Client{Transport: transport},
		logger:     cfg.Logger,
		mux:        http.NewServeMux(),
		stop:       make(chan struct{}),
		healthDone: make(chan struct{}),
		mxRetries: cfg.Metrics.Counter("specfront_retries_total",
			"Hops retried against another ring replica: after a failed hop, or after a 404 for a session the replica does not hold."),
		mxShed: cfg.Metrics.Counter("specfront_shed_total",
			"Requests refused with 429 because every candidate backend was saturated."),
	}
	names := make([]string, 0, len(cfg.Backends))
	for _, raw := range cfg.Backends {
		u, err := url.Parse(raw)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("front: backend %q is not an absolute URL", raw)
		}
		if u.Scheme != "http" && u.Scheme != "https" {
			return nil, fmt.Errorf("front: backend %q: unsupported scheme %q", raw, u.Scheme)
		}
		name := u.Host
		if _, dup := f.byName[name]; dup {
			return nil, fmt.Errorf("front: duplicate backend %q", name)
		}
		b := &backend{
			name: name,
			base: strings.TrimSuffix(u.String(), "/"),
			reqs: cfg.Metrics.Counter("specfront_backend_requests_total",
				"Hops proxied per backend.", obs.L("backend", name)),
			errs: cfg.Metrics.Counter("specfront_backend_errors_total",
				"Failed hops per backend (transport errors and 5xx).", obs.L("backend", name)),
			hop: cfg.Metrics.Histogram("specfront_hop_seconds",
				"Backend hop latency.", obs.LatencyBuckets, obs.L("backend", name)),
		}
		b.healthy.Store(true) // optimistic until the first probe says otherwise
		f.backends = append(f.backends, b)
		f.byName[name] = b
		names = append(names, name)
		cfg.Metrics.GaugeFunc("specfront_backend_healthy",
			"1 when the backend passes health checks.", func() float64 {
				if b.healthy.Load() {
					return 1
				}
				return 0
			}, obs.L("backend", name))
		cfg.Metrics.GaugeFunc("specfront_backend_queue_depth",
			"Queued requests last scraped from the backend's /metrics.",
			func() float64 { return float64(b.queueDepth.Load()) }, obs.L("backend", name))
		cfg.Metrics.GaugeFunc("specfront_backend_inflight",
			"Requests this front currently has in flight to the backend.",
			func() float64 { return float64(b.inflight.Load()) }, obs.L("backend", name))
	}
	f.ring.Set(names)
	for _, b := range f.backends {
		f.probe(context.Background(), b)
	}
	f.routes()
	go f.healthLoop()
	return f, nil
}

// Metrics exposes the obs registry backing GET /metrics.
func (f *Front) Metrics() *obs.Registry { return f.cfg.Metrics }

// Ring exposes the routing ring (tests, fleet introspection).
func (f *Front) Ring() *Ring { return f.ring }

// Handler returns the root HTTP handler.
func (f *Front) Handler() http.Handler { return f }

// ServeHTTP rejects traffic during shutdown and dispatches to the mux.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("front: shutting down"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, f.cfg.MaxBodyBytes)
	f.mux.ServeHTTP(w, r)
}

// Close stops the health prober. In-flight proxied requests complete under
// the HTTP server's own drain.
func (f *Front) Close(ctx context.Context) error {
	if f.closed.CompareAndSwap(false, true) {
		close(f.stop)
	}
	select {
	case <-f.healthDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (f *Front) routes() {
	f.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	f.mux.Handle("GET /metrics", f.cfg.Metrics.Handler())
	f.mux.HandleFunc("GET /v1/fleet", f.instrument("fleet", f.handleFleet))
	f.mux.HandleFunc("POST /v1/predict", f.instrument("predict", f.handlePredict))
	f.mux.HandleFunc("GET /v1/models", f.instrument("models", f.handleModels))
	f.mux.HandleFunc("POST /v1/models/reload", f.instrument("reload", f.handleReload))
	f.mux.HandleFunc("PUT /v1/models/{name}", f.instrument("models.publish", f.handleModelPublish))
	f.mux.HandleFunc("POST /v1/monitor", f.instrument("monitor.create", f.handleMonitorCreate))
	f.mux.HandleFunc("GET /v1/monitor", f.instrument("monitor.list", f.handleMonitorList))
	f.mux.HandleFunc("GET /v1/monitor/{id}", f.instrument("monitor.proxy", f.handleMonitorProxy))
	f.mux.HandleFunc("POST /v1/monitor/{id}/step", f.instrument("monitor.step", f.handleMonitorStep))
	f.mux.HandleFunc("DELETE /v1/monitor/{id}", f.instrument("monitor.proxy", f.handleMonitorProxy))
}

// instrument counts requests and server-attributable errors per endpoint.
func (f *Front) instrument(label string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	reqs := f.cfg.Metrics.Counter("specfront_http_requests_total",
		"HTTP requests handled per endpoint.", obs.L("endpoint", label))
	errs := f.cfg.Metrics.Counter("specfront_http_errors_total",
		"HTTP requests answered with an error status.", obs.L("endpoint", label))
	return func(w http.ResponseWriter, r *http.Request) {
		status := h(w, r)
		reqs.Inc()
		if status >= 400 {
			errs.Inc()
		}
	}
}

// hopResult is one backend response: status, content type and body, plus
// which backend produced it.
type hopResult struct {
	status  int
	ct      string
	body    []byte
	backend *backend
}

// forward performs one hop to one backend.
func (f *Front) forward(ctx context.Context, b *backend, method, path, contentType, accept string, body []byte) (*hopResult, error) {
	ctx, cancel := context.WithTimeout(ctx, f.cfg.RequestTimeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, b.base+path, rd)
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	b.inflight.Add(1)
	b.reqs.Inc()
	t0 := time.Now()
	resp, err := f.client.Do(req)
	b.hop.ObserveSince(t0)
	b.inflight.Add(-1)
	if err != nil {
		b.errs.Inc()
		b.markFailed(int64(f.cfg.FailThreshold))
		return nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(resp.Body)
	if err != nil {
		b.errs.Inc()
		b.markFailed(int64(f.cfg.FailThreshold))
		return nil, err
	}
	b.markAlive()
	if resp.StatusCode >= 500 {
		b.errs.Inc()
	}
	return &hopResult{
		status:  resp.StatusCode,
		ct:      resp.Header.Get("Content-Type"),
		body:    respBody,
		backend: b,
	}, nil
}

// candidates orders key's ring replicas for attempts: healthy backends in
// ring order first, unhealthy ones after them as a last resort (a fleet
// with zero healthy backends still tries, so a wrongly-marked backend can
// answer and heal).
func (f *Front) candidates(key string) []*backend {
	names := f.ring.Replicas(key, len(f.backends))
	ordered := make([]*backend, 0, len(names))
	for _, n := range names {
		if b := f.byName[n]; b != nil && b.healthy.Load() {
			ordered = append(ordered, b)
		}
	}
	for _, n := range names {
		if b := f.byName[n]; b != nil && !b.healthy.Load() {
			ordered = append(ordered, b)
		}
	}
	return ordered
}

// retryableStatus marks backend answers worth trying on another replica:
// the gateway-ish statuses a draining or overloaded specserve emits.
func retryableStatus(status int) bool {
	return status == http.StatusBadGateway || status == http.StatusServiceUnavailable ||
		status == http.StatusGatewayTimeout
}

// proxyWithFailover routes one request by its ring key with
// retry-with-backoff across replicas and admission control. The error
// return carries the HTTP status to surface when no hop produced a
// response at all.
//
// When every candidate is over the shed threshold the fleet is saturated
// and the request is refused with 429. Otherwise a request skips the
// saturated replicas, unless session is set: the request is addressed to
// an existing monitor session (step, status, close), which only the
// replica that holds the session can answer. Such a request goes to the
// replicas in ring order, saturated or not. A 404 from one replica means
// the session lives elsewhere (its create failed over past the ring
// owner), so the next replica is asked at once, without backoff and
// without spending the retry budget. A 504 comes only from the holder,
// which looks the session up before it queues a step, so it is relayed
// at once. The 404 is relayed when no replica that answered holds the
// session, ahead of any failed hop: a dead backend lost its sessions and
// a draining one answers 503 to every request, so the client's next move
// is a new session either way.
func (f *Front) proxyWithFailover(ctx context.Context, key, method, path, contentType, accept string, body []byte, session bool) (*hopResult, int, error) {
	ordered := f.candidates(key)
	if len(ordered) == 0 {
		return nil, http.StatusServiceUnavailable, errors.New("front: no backends configured")
	}
	// One saturation snapshot serves both the fleet-wide refusal and the
	// per-replica skip, so the two cannot disagree.
	saturated := make([]bool, len(ordered))
	nSaturated := 0
	for i, b := range ordered {
		if saturated[i] = b.saturated(f.cfg.ShedQueueDepth); saturated[i] {
			nSaturated++
		}
	}
	if nSaturated == len(ordered) {
		// The fleet is saturated: tell the client when to come back.
		f.mxShed.Inc()
		return nil, http.StatusTooManyRequests,
			fmt.Errorf("front: all %d backends saturated (queue depth >= %d)", nSaturated, f.cfg.ShedQueueDepth)
	}
	var last, notFound *hopResult
	var lastErr error
	failures, hops := 0, 0
	backoff := false // the previous hop failed, so the next one waits first
	for i, b := range ordered {
		if failures > f.cfg.Retries {
			break
		}
		if !session && saturated[i] {
			continue
		}
		if hops > 0 {
			// Every hop after the first is a retry: the previous replica
			// failed, or answered 404 for a session it does not hold.
			f.mxRetries.Inc()
		}
		if backoff {
			select {
			case <-ctx.Done():
				return nil, http.StatusServiceUnavailable, ctx.Err()
			case <-time.After(f.cfg.RetryBackoff << (failures - 1)):
			}
		}
		hops++
		res, err := f.forward(ctx, b, method, path, contentType, accept, body)
		backoff = err != nil || retryableStatus(res.status)
		switch {
		case err != nil:
			failures++
			lastErr = err
			f.logger.Warn("backend hop failed", "backend", b.name, "path", path, "err", err)
		case session && res.status == http.StatusGatewayTimeout:
			return res, 0, nil
		case backoff:
			failures++
			last = res
		case session && res.status == http.StatusNotFound:
			notFound = res
		default:
			return res, 0, nil
		}
	}
	if notFound != nil {
		return notFound, 0, nil
	}
	if last != nil {
		// A backend answered with a retryable status and no replica did
		// better; relay its answer rather than inventing one.
		return last, 0, nil
	}
	return nil, http.StatusBadGateway, fmt.Errorf("front: all replicas failed for %s: %w", path, lastErr)
}

// proxyError writes the error of a request no backend answered, with a
// Retry-After hint when admission control refused it.
func (f *Front) proxyError(w http.ResponseWriter, status int, err error) int {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", strconv.Itoa(int((f.cfg.RetryAfter+time.Second-1)/time.Second)))
	}
	return writeError(w, status, err)
}

// relay writes a hop result to the client unchanged (plus the backend
// attribution header).
func relay(w http.ResponseWriter, res *hopResult) int {
	if res.ct != "" {
		w.Header().Set("Content-Type", res.ct)
	}
	w.Header().Set(BackendHeader, res.backend.name)
	w.WriteHeader(res.status)
	_, _ = w.Write(res.body)
	return res.status
}

// isBinary reports whether a media type (possibly with parameters) is the
// SPB1 binary content type.
func isBinary(mediaType string) bool {
	if i := strings.IndexByte(mediaType, ';'); i >= 0 {
		mediaType = mediaType[:i]
	}
	return strings.EqualFold(strings.TrimSpace(mediaType), serve.BinaryContentType)
}

func (f *Front) handlePredict(w http.ResponseWriter, r *http.Request) int {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err)
	}
	clientBinary := isBinary(r.Header.Get("Content-Type"))
	var model string
	var hopBody []byte
	var hopCT string
	switch {
	case clientBinary && !f.cfg.JSONHops:
		// Binary in, binary hop: validate just enough to route; the frame
		// passes through untouched.
		if model, err = serve.BinaryRequestModel(body); err != nil {
			return writeError(w, http.StatusBadRequest, err)
		}
		hopBody, hopCT = body, serve.BinaryContentType
	case clientBinary:
		req, err := serve.ParsePredictRequestBinary(body)
		if err != nil {
			return writeError(w, http.StatusBadRequest, err)
		}
		model = req.Model
		if hopBody, err = json.Marshal(&req); err != nil {
			return writeError(w, http.StatusInternalServerError, err)
		}
		hopCT = "application/json"
	default:
		var req serve.PredictRequest
		if err := strictUnmarshal(body, &req); err != nil {
			return writeError(w, http.StatusBadRequest, err)
		}
		model = req.Model
		if f.cfg.JSONHops {
			hopBody, hopCT = body, "application/json"
		} else {
			if hopBody, err = serve.AppendPredictRequestBinary(nil, &req); err != nil {
				return writeError(w, http.StatusBadRequest, err)
			}
			hopCT = serve.BinaryContentType
		}
	}
	hopAccept := serve.BinaryContentType
	if f.cfg.JSONHops {
		hopAccept = "application/json"
	}
	res, status, err := f.proxyWithFailover(r.Context(), model, http.MethodPost, "/v1/predict", hopCT, hopAccept, hopBody, false)
	if err != nil {
		return f.proxyError(w, status, err)
	}
	if res.status != http.StatusOK {
		return relay(w, res)
	}
	return f.relayFractions(w, res, wantsBinary(r))
}

// wantsBinary reports whether the client asked for an SPB1 response.
func wantsBinary(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), serve.BinaryContentType)
}

// relayFractions returns a successful predict hop in the codec the client
// asked for, transcoding only when the backend's codec differs.
func (f *Front) relayFractions(w http.ResponseWriter, res *hopResult, clientWantsBinary bool) int {
	respBinary := isBinary(res.ct)
	if respBinary == clientWantsBinary {
		return relay(w, res)
	}
	var model string
	var fractions []float64
	if respBinary {
		var err error
		if model, fractions, err = serve.ParsePredictResponseBinary(res.body); err != nil {
			return writeError(w, http.StatusBadGateway, fmt.Errorf("front: backend %s sent a bad frame: %w", res.backend.name, err))
		}
	} else {
		var jr struct {
			Model     string    `json:"model"`
			Fractions []float64 `json:"fractions"`
		}
		if err := json.Unmarshal(res.body, &jr); err != nil {
			return writeError(w, http.StatusBadGateway, fmt.Errorf("front: backend %s sent bad JSON: %w", res.backend.name, err))
		}
		model, fractions = jr.Model, jr.Fractions
	}
	w.Header().Set(BackendHeader, res.backend.name)
	if clientWantsBinary {
		frame, err := serve.AppendPredictResponseBinary(nil, model, fractions)
		if err != nil {
			return writeError(w, http.StatusInternalServerError, err)
		}
		w.Header().Set("Content-Type", serve.BinaryContentType)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(frame)
		return http.StatusOK
	}
	return writeJSON(w, http.StatusOK, map[string]any{"model": model, "fractions": fractions})
}

func (f *Front) handleMonitorCreate(w http.ResponseWriter, r *http.Request) int {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err)
	}
	var fields map[string]json.RawMessage
	if err := strictUnmarshal(body, &fields); err != nil {
		return writeError(w, http.StatusBadRequest, fmt.Errorf("front: monitor create body: %w", err))
	}
	if fields == nil {
		fields = make(map[string]json.RawMessage)
	}
	// The front mints the session ID (unless the client chose one), which
	// is what lets it consistent-hash the session onto a backend and route
	// every later step of the session's life to the same place.
	var id string
	if raw, ok := fields["session"]; ok {
		if err := json.Unmarshal(raw, &id); err != nil {
			return writeError(w, http.StatusBadRequest, fmt.Errorf("front: session field: %w", err))
		}
	}
	if id == "" {
		id = fmt.Sprintf("%s-%06d", f.cfg.SessionPrefix, f.sessSeq.Add(1))
		idJSON, _ := json.Marshal(id)
		fields["session"] = idJSON
		if body, err = json.Marshal(fields); err != nil {
			return writeError(w, http.StatusInternalServerError, err)
		}
	}
	res, status, err := f.proxyWithFailover(r.Context(), id, http.MethodPost, "/v1/monitor", "application/json", "", body, false)
	if err != nil {
		return f.proxyError(w, status, err)
	}
	return relay(w, res)
}

// handleMonitorStep routes a session step by the session's ring key. The
// request spectrum is re-encoded onto the binary hop codec when the client
// sent JSON; the response (alarms, smoothed state) is JSON end to end.
func (f *Front) handleMonitorStep(w http.ResponseWriter, r *http.Request) int {
	id := r.PathValue("id")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err)
	}
	hopBody, hopCT := body, r.Header.Get("Content-Type")
	if !isBinary(hopCT) {
		hopCT = "application/json"
		if !f.cfg.JSONHops {
			var req serve.PredictRequest
			if err := strictUnmarshal(body, &req); err != nil {
				return writeError(w, http.StatusBadRequest, err)
			}
			if hopBody, err = serve.AppendPredictRequestBinary(nil, &req); err != nil {
				return writeError(w, http.StatusBadRequest, err)
			}
			hopCT = serve.BinaryContentType
		}
	}
	res, status, err := f.proxyWithFailover(r.Context(), id, http.MethodPost, "/v1/monitor/"+url.PathEscape(id)+"/step", hopCT, "", hopBody, true)
	if err != nil {
		return f.proxyError(w, status, err)
	}
	return relay(w, res)
}

// handleMonitorProxy routes status and close requests by session key.
func (f *Front) handleMonitorProxy(w http.ResponseWriter, r *http.Request) int {
	id := r.PathValue("id")
	res, status, err := f.proxyWithFailover(r.Context(), id, r.Method, "/v1/monitor/"+url.PathEscape(id), "", "", nil, true)
	if err != nil {
		return f.proxyError(w, status, err)
	}
	return relay(w, res)
}

// handleModels forwards the model listing to any healthy backend — the
// fleet serves one shared model directory, so every backend's answer is
// equivalent.
func (f *Front) handleModels(w http.ResponseWriter, r *http.Request) int {
	res, status, err := f.proxyWithFailover(r.Context(), "models", http.MethodGet, "/v1/models", "", "", nil, false)
	if err != nil {
		return f.proxyError(w, status, err)
	}
	return relay(w, res)
}

// handleReload broadcasts a hot reload to every backend, so the fleet
// converges on the new weights in one client call. Per-backend outcomes
// are reported individually; the status is 200 only if all succeeded.
func (f *Front) handleReload(w http.ResponseWriter, r *http.Request) int {
	results := make(map[string]any, len(f.backends))
	status := http.StatusOK
	for _, b := range f.backends {
		res, err := f.forward(r.Context(), b, http.MethodPost, "/v1/models/reload", "application/json", "", []byte("{}"))
		if err != nil {
			results[b.name] = map[string]string{"error": err.Error()}
			status = http.StatusBadGateway
			continue
		}
		var payload any
		if err := json.Unmarshal(res.body, &payload); err != nil {
			payload = string(res.body)
		}
		results[b.name] = payload
		if res.status != http.StatusOK {
			status = http.StatusBadGateway
		}
	}
	return writeJSON(w, status, map[string]any{"backends": results})
}

// handleModelPublish broadcasts new model weights to every backend, so a
// recalibration lands fleet-wide in one client call even when backends do
// not share a model directory. Like the reload broadcast, per-backend
// outcomes are reported individually and the status is 200 only if all
// succeeded; each backend persists atomically, so a partial broadcast
// leaves every backend either on the old weights or the new ones.
func (f *Front) handleModelPublish(w http.ResponseWriter, r *http.Request) int {
	name := r.PathValue("name")
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err)
	}
	path := "/v1/models/" + url.PathEscape(name)
	results := make(map[string]any, len(f.backends))
	status := http.StatusOK
	for _, b := range f.backends {
		res, err := f.forward(r.Context(), b, http.MethodPut, path, "application/json", "", body)
		if err != nil {
			results[b.name] = map[string]string{"error": err.Error()}
			status = http.StatusBadGateway
			continue
		}
		var payload any
		if err := json.Unmarshal(res.body, &payload); err != nil {
			payload = string(res.body)
		}
		results[b.name] = payload
		if res.status != http.StatusOK {
			// Relay a uniform client error (bad name, bad weights) as-is;
			// disagreeing backends or 5xx are a gateway problem.
			if res.status >= 400 && res.status < 500 &&
				(status == http.StatusOK || status == res.status) {
				status = res.status
			} else {
				status = http.StatusBadGateway
			}
		}
	}
	return writeJSON(w, status, map[string]any{"model": name, "backends": results})
}

// handleMonitorList merges the live-session listings of every healthy
// backend.
func (f *Front) handleMonitorList(w http.ResponseWriter, r *http.Request) int {
	var sessions []string
	for _, b := range f.backends {
		if !b.healthy.Load() {
			continue
		}
		res, err := f.forward(r.Context(), b, http.MethodGet, "/v1/monitor", "", "", nil)
		if err != nil || res.status != http.StatusOK {
			continue
		}
		var payload struct {
			Sessions []string `json:"sessions"`
		}
		if err := json.Unmarshal(res.body, &payload); err == nil {
			sessions = append(sessions, payload.Sessions...)
		}
	}
	if sessions == nil {
		sessions = []string{}
	}
	return writeJSON(w, http.StatusOK, map[string]any{"sessions": sessions})
}

// handleFleet reports per-backend routing state: the operator's (and the
// e2e harness') view of health, load and shedding.
func (f *Front) handleFleet(w http.ResponseWriter, r *http.Request) int {
	type backendInfo struct {
		Name       string `json:"name"`
		URL        string `json:"url"`
		Healthy    bool   `json:"healthy"`
		QueueDepth int64  `json:"queueDepth"`
		Inflight   int64  `json:"inflight"`
	}
	infos := make([]backendInfo, len(f.backends))
	healthy := 0
	for i, b := range f.backends {
		infos[i] = backendInfo{
			Name:       b.name,
			URL:        b.base,
			Healthy:    b.healthy.Load(),
			QueueDepth: b.queueDepth.Load(),
			Inflight:   b.inflight.Load(),
		}
		if infos[i].Healthy {
			healthy++
		}
	}
	return writeJSON(w, http.StatusOK, map[string]any{
		"backends":    infos,
		"healthy":     healthy,
		"binary_hops": !f.cfg.JSONHops,
	})
}

// strictUnmarshal mirrors the backend's strict JSON decoding (unknown
// fields and trailing garbage are client errors), so transcoding at the
// front never silently drops request fields the backend would have
// rejected.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("front: decoding request: %w", err)
	}
	if dec.More() {
		return errors.New("front: trailing data after JSON body")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
	return status
}

func writeError(w http.ResponseWriter, status int, err error) int {
	return writeJSON(w, status, map[string]string{"error": err.Error()})
}
