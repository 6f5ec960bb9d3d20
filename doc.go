// Package specml reproduces "Artificial Intelligence for Mass Spectrometry
// and Nuclear Magnetic Resonance Spectroscopy Using a Novel Data
// Augmentation Method" (Fricke et al., DATE 2021 / IEEE TETC 2021) as a
// pure-Go library: physically motivated spectra simulators for MS and NMR,
// a from-scratch neural-network framework, Indirect Hard Modelling, an
// embedded-platform cost model and a benchmark harness regenerating every
// table and figure of the paper's evaluation.
//
// # Parallelism
//
// Dataset generation, Model.Fit and batched inference run on a shared
// worker pool (internal/parallel) controlled by a single Workers knob
// (0 = all cores) threaded through experiments.Config, the core pipeline
// configs, toolflow.TopologySpec and the cmd/* -workers flags. Results
// are bit-identical for any worker count: generation derives one
// rng.Split child stream per sample index, and training and batched
// inference shard each batched kernel over the workers along an axis whose
// output elements no two shards share, so every element keeps its
// sequential accumulation order. Workers is therefore a pure
// throughput knob — equal seeds give equal corpora and equal networks,
// sequential or parallel. SPECML_BENCH_SCALE and SPECML_BENCH_WORKERS
// compose in the benchmark harness: the former picks the corpus size,
// the latter the worker count.
//
// # Serving
//
// internal/serve and cmd/specserve expose trained models as an HTTP/JSON
// inference service: /v1/predict (one spectrum to substance fractions),
// /v1/monitor (stateful core.Monitor sessions with alarm bands),
// /v1/models (registry with hot reload from a model directory) and
// /metrics (Prometheus batch-size and per-stage latency histograms). Every
// forward pass is routed through a per-model continuous-batching
// dispatcher: it flushes as soon as it is free, and the requests that
// queued while the previous forward pass ran (up to a max batch of 32)
// leave together in one PredictBatch call. No timer holds a batch open.
// Since PredictBatch is bit-identical to sequential Predict, batching
// never changes a response. Shutdown drains in-flight batches.
// Golden-file tests pin the on-disk model formats and fuzz harnesses keep
// the request decoder and spectrum preprocessing panic-free on hostile
// input.
//
// See README.md for a tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for paper-vs-measured results. The root package contains
// no code; the library lives under internal/ and is exercised through the
// commands in cmd/ and the examples in examples/.
package specml
