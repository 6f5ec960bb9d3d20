// Package serve is the online inference layer of the library: an HTTP/JSON
// server that turns trained, nn.Save-serialized networks into the paper's
// closed-loop process-control service. Incoming spectra are preprocessed
// (resampled onto the model's input axis and normalized like the training
// corpus), routed through a per-model continuous-batching dispatcher that
// coalesces the requests queued while the model was busy into single
// PredictBatch forward passes,
// and optionally fed into stateful core.Monitor sessions that raise alarm
// events on concentration-limit violations.
//
// Endpoints:
//
//	POST   /v1/predict            one spectrum -> substance fractions
//	GET    /v1/models             list registered models
//	POST   /v1/models/reload      hot-reload models from the model directory
//	PUT    /v1/models/{name}      publish nn.Save weights and hot-swap them
//	POST   /v1/monitor            open a monitoring session
//	GET    /v1/monitor            list live session IDs
//	GET    /v1/monitor/{id}       session status
//	POST   /v1/monitor/{id}/step  feed one spectrum, get alarms
//	DELETE /v1/monitor/{id}       close a session
//	GET    /metrics               Prometheus metrics (stage latencies, batch sizes)
//	GET    /healthz               liveness probe
//
// Batching is invisible to clients: PredictBatch is bit-identical to
// sequential Predict for any worker count, so a response never depends on
// which requests shared a batch with it.
//
// The server is safe to expose to untrusted clients: request bodies are
// size-capped, monitor sessions are bounded by a cap and an idle TTL, and
// a hot reload that changes a model's input width fails in-flight requests
// with 409 instead of crashing a forward pass.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"specml/internal/core"
	"specml/internal/obs"
)

// Config parameterizes a Server.
type Config struct {
	// MaxBatch caps how many requests one forward pass may coalesce
	// (default 32).
	MaxBatch int
	// BatchWindow is the former batch timer.
	//
	// Deprecated: ignored. A model's dispatcher flushes as soon as it is
	// free, taking every request that queued while it was busy (see
	// Batcher).
	BatchWindow time.Duration
	// Workers is the kernel worker count of each batched forward (0 = all
	// cores): PredictBatch shards its convolution, activation and LSTM
	// kernels over this many goroutines. Results are bit-identical for any
	// value.
	Workers int
	// RequestTimeout bounds a request's wait on the dispatcher
	// (default 10s).
	RequestTimeout time.Duration
	// ModelDir, when set, is loaded at startup and re-scanned by
	// POST /v1/models/reload.
	ModelDir string
	// MaxBodyBytes caps request bodies (default 32 MiB).
	MaxBodyBytes int64
	// MaxSessions caps live monitor sessions; creation beyond the cap is
	// refused with 429 (default 256, negative = unlimited).
	MaxSessions int
	// SessionIdleTimeout expires monitor sessions that have not been
	// stepped or queried for this long (default 30m, negative = never).
	SessionIdleTimeout time.Duration
	// Metrics receives the server's obs instruments (stage-latency
	// histograms, batch-size distribution, queue-depth and session gauges,
	// per-model counters) and is served at GET /metrics in the Prometheus
	// text format. Nil creates a private registry, so /metrics always
	// works; inject one to aggregate with other subsystems.
	Metrics *obs.Registry
	// Logger receives structured server events (reloads, batch failures).
	// Nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.MaxSessions == 0 {
		c.MaxSessions = 256
	}
	if c.SessionIdleTimeout == 0 {
		c.SessionIdleTimeout = 30 * time.Minute
	}
	return c
}

// Server routes inference traffic to registered models. Create with New,
// attach models via Registry or Config.ModelDir, serve Handler, and Close
// to drain.
type Server struct {
	cfg      Config
	mx       *serveMetrics
	logger   *slog.Logger
	reg      *Registry
	sessions *sessionStore
	mux      *http.ServeMux
	closed   atomic.Bool
}

// New builds a server and, when Config.ModelDir is set, loads its models.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	s := &Server{
		cfg:      cfg,
		mx:       newServeMetrics(cfg.Metrics),
		logger:   cfg.Logger,
		sessions: newSessionStore(cfg.MaxSessions, cfg.SessionIdleTimeout),
		mux:      http.NewServeMux(),
	}
	s.reg = newRegistry(cfg.MaxBatch, cfg.Workers, s.mx, s.logger)
	cfg.Metrics.GaugeFunc("specserve_monitor_sessions",
		"Live monitor sessions.", func() float64 { return float64(s.sessions.count()) })
	if cfg.ModelDir != "" {
		if _, err := s.reg.LoadDir(cfg.ModelDir); err != nil {
			return nil, err
		}
	}
	s.routes()
	return s, nil
}

// Metrics exposes the obs registry backing GET /metrics.
func (s *Server) Metrics() *obs.Registry { return s.cfg.Metrics }

// Registry exposes the model registry (programmatic registration, tests).
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the root HTTP handler.
func (s *Server) Handler() http.Handler { return s }

// ServeHTTP rejects traffic during shutdown and dispatches to the mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.closed.Load() {
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: server shutting down"))
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	s.mux.ServeHTTP(w, r)
}

// Close drains every model's in-flight batches and stops accepting new
// requests. It returns early with ctx's error if draining outlives ctx.
func (s *Server) Close(ctx context.Context) error {
	s.closed.Store(true)
	done := make(chan struct{})
	go func() {
		s.reg.close()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	s.mux.Handle("GET /metrics", s.cfg.Metrics.Handler())
	s.mux.HandleFunc("POST /v1/predict", s.instrument("predict", s.handlePredict))
	s.mux.HandleFunc("GET /v1/models", s.instrument("models", s.handleModels))
	s.mux.HandleFunc("POST /v1/models/reload", s.instrument("reload", s.handleReload))
	s.mux.HandleFunc("PUT /v1/models/{name}", s.instrument("models.publish", s.handleModelPublish))
	s.mux.HandleFunc("POST /v1/monitor", s.instrument("monitor.create", s.handleMonitorCreate))
	s.mux.HandleFunc("GET /v1/monitor", s.instrument("monitor.list", s.handleMonitorList))
	s.mux.HandleFunc("GET /v1/monitor/{id}", s.instrument("monitor.status", s.handleMonitorStatus))
	s.mux.HandleFunc("POST /v1/monitor/{id}/step", s.instrument("monitor.step", s.handleMonitorStep))
	s.mux.HandleFunc("DELETE /v1/monitor/{id}", s.instrument("monitor.close", s.handleMonitorClose))
}

// statusClientClosedRequest is the nginx-convention status for a request
// whose client went away before the response was ready. It exists so
// client-initiated aborts are distinguishable from real failures and stay
// out of the specserve_http_errors_total counts.
const statusClientClosedRequest = 499

// instrument counts requests and errors per endpoint label. A client-closed
// request is not counted as an error: the server did nothing wrong when the
// client hung up. The obs counters are resolved once per endpoint at route
// setup, so the per-request path performs no registry lookups.
func (s *Server) instrument(label string, h func(http.ResponseWriter, *http.Request) int) http.HandlerFunc {
	reqs, errs := s.mx.endpointCounters(label)
	return func(w http.ResponseWriter, r *http.Request) {
		status := h(w, r)
		reqs.Inc()
		if status >= 400 && status != statusClientClosedRequest {
			errs.Inc()
		}
	}
}

// decodeJSON strictly decodes one JSON body; unknown fields and trailing
// garbage are client errors.
func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("serve: decoding request: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("serve: trailing data after JSON body")
	}
	return nil
}

// batchedPredict preprocesses one request spectrum for entry's model and
// runs it through the entry's micro-batcher under the request timeout.
func (s *Server) batchedPredict(ctx context.Context, e *modelEntry, req *PredictRequest) (y []float64, status int, err error) {
	if e.reqs != nil {
		e.reqs.Inc()
		defer func() {
			if err != nil && status != statusClientClosedRequest {
				e.errs.Inc()
			}
		}()
	}
	t0 := time.Now()
	x, err := preprocessInput(req.Intensities, req.Axis, req.Normalize, e.current().InputLen())
	s.mx.stPreprocess.ObserveSince(t0)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	ctx, cancel := context.WithTimeout(ctx, s.cfg.RequestTimeout)
	defer cancel()
	y, err = e.batcher.Predict(ctx, x)
	if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
		// Any other outcome means the batcher is done with x; a context
		// error can race a pending flush that still reads it, so the pooled
		// buffer is dropped rather than recycled on those paths.
		putInput(x)
	}
	switch {
	case errors.Is(err, context.Canceled):
		// The client disconnected mid-request; not a server failure.
		return nil, statusClientClosedRequest, err
	case errors.Is(err, context.DeadlineExceeded):
		return nil, http.StatusGatewayTimeout, err
	case errors.Is(err, ErrBatcherClosed):
		return nil, http.StatusServiceUnavailable, err
	case errors.Is(err, ErrModelReloaded):
		// A hot reload changed the input width between preprocessing and
		// flush; the client retries against the new width.
		return nil, http.StatusConflict, err
	case err != nil:
		return nil, http.StatusInternalServerError, err
	}
	for i, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, http.StatusInternalServerError,
				fmt.Errorf("serve: model %q produced non-finite output[%d]", e.name, i)
		}
	}
	return y, http.StatusOK, nil
}

// modelErrStatus maps a Registry.get failure to its HTTP status: omitting
// the model name with several models registered is a malformed request
// (400), an unknown name is a missing resource (404).
func modelErrStatus(err error) int {
	if errors.Is(err, errAmbiguousModel) {
		return http.StatusBadRequest
	}
	return http.StatusNotFound
}

// isBinaryRequest reports whether the request body is an SPB1 frame, by
// Content-Type (parameters such as charset are ignored).
func isBinaryRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.EqualFold(strings.TrimSpace(ct), BinaryContentType)
}

// wantsBinaryResponse reports whether the client asked for an SPB1 response
// via the Accept header.
func wantsBinaryResponse(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), BinaryContentType)
}

// readPredictRequest decodes the request body by its negotiated codec,
// recording the decode stage into the per-codec histogram so the JSON/SPB1
// cost difference is visible on /metrics.
func (s *Server) readPredictRequest(r *http.Request) (*PredictRequest, error) {
	if isBinaryRequest(r) {
		t0 := time.Now()
		data, err := io.ReadAll(r.Body)
		if err != nil {
			return nil, fmt.Errorf("serve: reading binary body: %w", err)
		}
		req, err := ParsePredictRequestBinary(data)
		s.mx.stDecodeBinary.ObserveSince(t0)
		if err != nil {
			return nil, err
		}
		return &req, nil
	}
	var req PredictRequest
	t0 := time.Now()
	err := decodeJSON(r, &req)
	s.mx.stDecodeJSON.ObserveSince(t0)
	if err != nil {
		return nil, err
	}
	return &req, nil
}

// encodeResponse wraps the JSON codec with the encode stage histogram, so
// serialization cost is visible next to the compute stages it brackets.
func (s *Server) encodeResponse(w http.ResponseWriter, status int, v any) int {
	t0 := time.Now()
	st := writeJSON(w, status, v)
	s.mx.stEncodeJSON.ObserveSince(t0)
	return st
}

// encodeFractions writes a prediction result in the codec the client asked
// for: an SPB1 kind-2 frame when Accept names BinaryContentType, the JSON
// object otherwise. Errors always use the JSON envelope.
func (s *Server) encodeFractions(w http.ResponseWriter, r *http.Request, model string, y []float64) int {
	if !wantsBinaryResponse(r) {
		return s.encodeResponse(w, http.StatusOK, map[string]any{
			"model":     model,
			"fractions": y,
		})
	}
	t0 := time.Now()
	frame, err := AppendPredictResponseBinary(nil, model, y)
	if err != nil {
		return writeError(w, http.StatusInternalServerError, err)
	}
	w.Header().Set("Content-Type", BinaryContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(frame)
	s.mx.stEncodeBinary.ObserveSince(t0)
	return http.StatusOK
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) int {
	req, err := s.readPredictRequest(r)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err)
	}
	e, err := s.reg.get(req.Model)
	if err != nil {
		return writeError(w, modelErrStatus(err), err)
	}
	y, status, err := s.batchedPredict(r.Context(), e, req)
	if err != nil {
		return writeError(w, status, err)
	}
	return s.encodeFractions(w, r, e.name, y)
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) int {
	return writeJSON(w, http.StatusOK, map[string]any{"models": s.reg.List()})
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) int {
	names, err := s.reg.ReloadDir()
	if err != nil {
		return writeError(w, http.StatusConflict, err)
	}
	return writeJSON(w, http.StatusOK, map[string]any{"reloaded": names})
}

// handleModelPublish accepts nn.Save JSON weights and installs them under
// the path name: persisted into the model directory and hot-swapped into
// the live registry. It is the write half of the recalibration loop — a
// retrainer publishes to one backend and then broadcasts /v1/models/reload
// so the rest of the fleet re-scans the shared directory.
func (s *Server) handleModelPublish(w http.ResponseWriter, r *http.Request) int {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		return writeError(w, http.StatusBadRequest, fmt.Errorf("serve: reading model body: %w", err))
	}
	info, err := s.reg.Publish(r.PathValue("name"), data)
	switch {
	case errors.Is(err, errBadModelName):
		return writeError(w, http.StatusBadRequest, err)
	case errors.Is(err, errNoModelDir):
		return writeError(w, http.StatusConflict, err)
	case err != nil:
		return writeError(w, http.StatusBadRequest, err)
	}
	return writeJSON(w, http.StatusOK, map[string]any{"published": info})
}

// monitorCreateRequest opens a monitoring session.
type monitorCreateRequest struct {
	Model string `json:"model,omitempty"`
	// Session optionally supplies the session ID instead of letting the
	// server mint one — the hook that lets a fleet front door consistent-
	// hash sessions onto backends by an ID it chose itself. A duplicate ID
	// is refused with 409.
	Session string `json:"session,omitempty"`
	// Names labels the model outputs; defaults to out0..outN-1.
	Names []string `json:"names,omitempty"`
	// Limits are per-substance alarm bands.
	Limits []limitSpec `json:"limits,omitempty"`
	// Smoothing is the monitor's EMA factor in [0,1).
	Smoothing float64 `json:"smoothing,omitempty"`
}

type limitSpec struct {
	Name string  `json:"name"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// alarmJSON flattens core.Alarm for the wire.
type alarmJSON struct {
	Step  int     `json:"step"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

func alarmsJSON(alarms []core.Alarm) []alarmJSON {
	out := make([]alarmJSON, len(alarms))
	for i, a := range alarms {
		out[i] = alarmJSON{Step: a.Step, Name: a.Name, Value: a.Value, Min: a.Limit.Min, Max: a.Limit.Max}
	}
	return out
}

func (s *Server) handleMonitorCreate(w http.ResponseWriter, r *http.Request) int {
	var req monitorCreateRequest
	if err := decodeJSON(r, &req); err != nil {
		return writeError(w, http.StatusBadRequest, err)
	}
	if math.IsNaN(req.Smoothing) || math.IsInf(req.Smoothing, 0) {
		return writeError(w, http.StatusBadRequest, errors.New("serve: non-finite smoothing"))
	}
	e, err := s.reg.get(req.Model)
	if err != nil {
		return writeError(w, modelErrStatus(err), err)
	}
	width := e.current().OutputLen()
	names := req.Names
	if len(names) == 0 {
		names = make([]string, width)
		for i := range names {
			names[i] = fmt.Sprintf("out%d", i)
		}
	}
	if len(names) != width {
		return writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: %d names for model %q with %d outputs", len(names), e.name, width))
	}
	limits := make([]core.Limit, len(req.Limits))
	for i, l := range req.Limits {
		limits[i] = core.Limit{Name: l.Name, Min: l.Min, Max: l.Max}
	}
	sess, err := s.sessions.create(e.name, req.Session, names, limits, req.Smoothing)
	if err != nil {
		switch {
		case errors.Is(err, errTooManySessions):
			return writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, errSessionExists):
			return writeError(w, http.StatusConflict, err)
		}
		return writeError(w, http.StatusBadRequest, err)
	}
	return writeJSON(w, http.StatusOK, map[string]any{
		"session": sess.id,
		"model":   sess.model,
		"names":   sess.names,
	})
}

func (s *Server) handleMonitorList(w http.ResponseWriter, r *http.Request) int {
	return writeJSON(w, http.StatusOK, map[string]any{"sessions": s.sessions.list()})
}

func (s *Server) handleMonitorStatus(w http.ResponseWriter, r *http.Request) int {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		return writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown session %q", r.PathValue("id")))
	}
	steps, alarms, smoothed := sess.status()
	return writeJSON(w, http.StatusOK, map[string]any{
		"session":  sess.id,
		"model":    sess.model,
		"names":    sess.names,
		"steps":    steps,
		"alarms":   alarms,
		"smoothed": smoothed,
	})
}

func (s *Server) handleMonitorStep(w http.ResponseWriter, r *http.Request) int {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		return writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown session %q", r.PathValue("id")))
	}
	req, err := s.readPredictRequest(r)
	if err != nil {
		return writeError(w, http.StatusBadRequest, err)
	}
	if req.Model != "" && req.Model != sess.model {
		return writeError(w, http.StatusBadRequest,
			fmt.Errorf("serve: session %s is pinned to model %q", sess.id, sess.model))
	}
	e, err := s.reg.get(sess.model)
	if err != nil {
		// The session's model was unloaded; the session is now orphaned.
		return writeError(w, http.StatusConflict, err)
	}
	y, status, err := s.batchedPredict(r.Context(), e, req)
	if err != nil {
		return writeError(w, status, err)
	}
	alarms, smoothed, step, err := sess.step(y)
	if err != nil {
		return writeError(w, http.StatusInternalServerError, err)
	}
	return s.encodeResponse(w, http.StatusOK, map[string]any{
		"session":    sess.id,
		"step":       step,
		"prediction": y,
		"smoothed":   smoothed,
		"alarms":     alarmsJSON(alarms),
	})
}

func (s *Server) handleMonitorClose(w http.ResponseWriter, r *http.Request) int {
	id := r.PathValue("id")
	if !s.sessions.remove(id) {
		return writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown session %q", id))
	}
	return writeJSON(w, http.StatusOK, map[string]any{"closed": id})
}

// writeJSON writes a JSON response and returns the status for the
// instrumentation wrapper.
func writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
	return status
}

// writeError writes the uniform error envelope.
func writeError(w http.ResponseWriter, status int, err error) int {
	return writeJSON(w, status, map[string]string{"error": err.Error()})
}
