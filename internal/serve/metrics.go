package serve

import (
	"specml/internal/obs"
)

// Stage labels of the specserve_stage_seconds histogram; one request
// traverses decode -> preprocess -> batch_wait -> forward -> encode, so
// the per-stage histograms decompose end-to-end latency into the phase
// that actually costs it (queueing vs compute vs serialization). The
// decode and encode stages carry an extra codec label (json vs binary),
// which is what makes the SPB1 wire-format win measurable on /metrics.
const (
	stageDecode     = "decode"
	stagePreprocess = "preprocess"
	stageBatchWait  = "batch_wait"
	stageForward    = "forward"
	stageEncode     = "encode"

	codecJSON   = "json"
	codecBinary = "binary"
)

// serveMetrics bundles one Server's obs instruments. Every field is
// created once at server construction (or model registration), so the
// per-request recording path is pointer dereferences and atomic adds —
// zero heap allocations in steady state.
type serveMetrics struct {
	reg *obs.Registry

	// stage[...] are per-stage latency histograms sharing one family; the
	// serialization stages are split by codec.
	stDecodeJSON, stDecodeBinary *obs.Histogram
	stPreprocess                 *obs.Histogram
	stBatchWait                  *obs.Histogram
	stForward                    *obs.Histogram
	stEncodeJSON, stEncodeBinary *obs.Histogram

	// batchSize is the coalesced-batch-size distribution of all batchers.
	batchSize *obs.Histogram

	// reloads counts hot-reload attempts by outcome.
	reloadsOK, reloadsFailed *obs.Counter

	// publishes counts model publish attempts by outcome.
	publishesOK, publishesFailed *obs.Counter
}

// newServeMetrics registers every instrument.
func newServeMetrics(reg *obs.Registry) *serveMetrics {
	stage := func(name string) *obs.Histogram {
		return reg.Histogram("specserve_stage_seconds",
			"Per-stage request latency of the predict pipeline.",
			obs.LatencyBuckets, obs.L("stage", name))
	}
	codecStage := func(name, codec string) *obs.Histogram {
		return reg.Histogram("specserve_stage_seconds",
			"Per-stage request latency of the predict pipeline.",
			obs.LatencyBuckets, obs.L("stage", name), obs.L("codec", codec))
	}
	return &serveMetrics{
		reg:            reg,
		stDecodeJSON:   codecStage(stageDecode, codecJSON),
		stDecodeBinary: codecStage(stageDecode, codecBinary),
		stPreprocess:   stage(stagePreprocess),
		stBatchWait:    stage(stageBatchWait),
		stForward:      stage(stageForward),
		stEncodeJSON:   codecStage(stageEncode, codecJSON),
		stEncodeBinary: codecStage(stageEncode, codecBinary),
		batchSize: reg.Histogram("specserve_batch_size",
			"Requests coalesced into one forward pass.", obs.SizeBuckets),
		reloadsOK: reg.Counter("specserve_reloads_total",
			"Hot reloads by outcome.", obs.L("result", "ok")),
		reloadsFailed: reg.Counter("specserve_reloads_total",
			"Hot reloads by outcome.", obs.L("result", "error")),
		publishesOK: reg.Counter("specserve_publishes_total",
			"Model publishes by outcome.", obs.L("result", "ok")),
		publishesFailed: reg.Counter("specserve_publishes_total",
			"Model publishes by outcome.", obs.L("result", "error")),
	}
}

// endpointCounters returns the request/error counters of one HTTP
// endpoint label, created on first use at route-registration time.
func (m *serveMetrics) endpointCounters(endpoint string) (reqs, errs *obs.Counter) {
	reqs = m.reg.Counter("specserve_http_requests_total",
		"HTTP requests handled per endpoint.", obs.L("endpoint", endpoint))
	errs = m.reg.Counter("specserve_http_errors_total",
		"HTTP requests answered with a server-attributable error status.",
		obs.L("endpoint", endpoint))
	return reqs, errs
}

// modelCounters returns the request/error counters of one model, created
// when the model is (re)registered.
func (m *serveMetrics) modelCounters(model string) (reqs, errs *obs.Counter) {
	reqs = m.reg.Counter("specserve_model_requests_total",
		"Predict requests routed per model.", obs.L("model", model))
	errs = m.reg.Counter("specserve_model_errors_total",
		"Failed predict requests per model (client disconnects excluded).",
		obs.L("model", model))
	return reqs, errs
}
