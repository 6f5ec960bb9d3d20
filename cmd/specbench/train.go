package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"specml/internal/dataset"
	"specml/internal/msim"
	"specml/internal/nn"
	"specml/internal/obs"
	"specml/internal/rng"
	"specml/internal/toolflow"
)

// Corpus sizes per second of --seconds, frozen so that a run trains for
// about --seconds on the 2-core host the benchmark was defined on. The
// size depends only on --seconds, so the trained model is a pure function
// of (--seed, --seconds).
const (
	msSamplesPerSecond   = 600
	lstmWindowsPerSecond = 600
	lstmHeldOut          = 64
	msTrainFraction      = 0.98

	trainLatencyWindow = 2 * time.Second
)

// trainEnv is one set-up training run: a freshly initialized model, its
// streamed training corpus and the held-out rows.
type trainEnv struct {
	spec      toolflow.TopologySpec
	model     *nn.Model
	train     dataset.Source
	val       *dataset.Dataset
	untrained float64 // held-out MAE before training
}

func setupTrain(o opts, s stack) (*trainEnv, error) {
	spec, err := s.spec(o.seed)
	if err != nil {
		return nil, err
	}
	n := o.trainSamples(s)
	var src dataset.Source
	var trainIdx, valIdx []int
	switch s {
	case msTable1:
		sim, err := msLineSimulator()
		if err != nil {
			return nil, err
		}
		if src, _, err = msim.NewTrainingStream(sim, msim.DefaultTrueModel(), msim.DefaultAxis(), n, 1.0, o.seed, msim.TrainingOptions{}); err != nil {
			return nil, err
		}
		if trainIdx, valIdx, err = dataset.SplitIndices(n, msTrainFraction, rng.New(o.seed+1)); err != nil {
			return nil, err
		}
	case nmrLSTM:
		if src, err = nmrAugmenter().TimeSeriesStream(n+lstmHeldOut, lstmSteps, lstmMaxRepeat, o.seed); err != nil {
			return nil, err
		}
		perm := dataset.ShuffledIndices(n+lstmHeldOut, rng.New(o.seed+1))
		valIdx, trainIdx = perm[:lstmHeldOut], perm[lstmHeldOut:]
	default:
		return nil, fmt.Errorf("specbench: no training workload for %s", s.model)
	}
	env := &trainEnv{spec: spec}
	if env.train, err = dataset.Select(src, trainIdx); err != nil {
		return nil, err
	}
	if env.val, err = dataset.Materialize(src, valIdx); err != nil {
		return nil, err
	}
	if env.model, err = spec.Build(); err != nil {
		return nil, err
	}
	env.untrained, _ = env.model.EvaluateMAE(env.val.X, env.val.Y)
	return env, nil
}

// timedOptimizer stamps every optimizer step, which is how the benchmark
// times one training step (render wait + forward + backward + update)
// without reaching inside FitSource.
type timedOptimizer struct {
	nn.Optimizer
	steps []time.Time
}

func (t *timedOptimizer) Step(params []*nn.Param) {
	t.Optimizer.Step(params)
	t.steps = append(t.steps, time.Now())
}

func runTrain(o opts, s stack) (*outcome, error) {
	out := newOutcome()
	env, setupS, err := repeatSetup(func() (*trainEnv, error) { return setupTrain(o, s) }, func(*trainEnv) {})
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = setupS
	loss, err := nn.LossByName(env.spec.Loss)
	if err != nil {
		return nil, err
	}
	inner, err := nn.OptimizerByName(env.spec.Optimizer, env.spec.LR)
	if err != nil {
		return nil, err
	}
	samples := env.train.Len()
	opt := &timedOptimizer{Optimizer: inner, steps: make([]time.Time, 0, samples/env.spec.BatchSize+1)}
	var tr *tracer
	var reg *obs.Registry
	src := env.train
	if o.trace {
		tr, reg = newTracer(), obs.NewRegistry()
		src = &timedSource{Source: env.train, tr: tr}
	}

	runtime.GC()
	heap := startHeapSampler()
	cpu0 := cpuTime()
	t0 := time.Now()
	_, err = env.model.FitSource(src, nn.FitConfig{
		Epochs:    1,
		BatchSize: env.spec.BatchSize,
		Loss:      loss,
		Optimizer: opt,
		Seed:      env.spec.Seed,
		ValX:      env.val.X,
		ValY:      env.val.Y,
		KeepBest:  env.spec.KeepBest,
		Workers:   0,
		Metrics:   reg,
	})
	wall := time.Since(t0)
	out.e2e["cpu_ms_per_op"] = durMS(cpuTime()-cpu0) / float64(samples)
	out.e2e["peak_heap_mib"] = heap.stopMiB()
	if err != nil {
		return nil, err
	}

	// Each step is one "request" of the training run: its latency is the
	// time since the previous step, and it lands when it completes.
	steps := &phaseResult{}
	for i := 1; i < len(opt.steps); i++ {
		steps.record(true, opt.steps[i].Sub(opt.steps[i-1]), time.Hour, opt.steps[i].Sub(t0))
	}
	// Like the serving numbers, these are medians over windows of the run,
	// so a transient stall moves one window rather than the result: the
	// median step per two seconds (about 40 steps), samples per second of
	// the steps completed in each second.
	span := opt.steps[len(opt.steps)-1].Sub(t0)
	p50 := steps.windowedPercentile(50, trainLatencyWindow, span)
	out.e2e["p50_ms"] = p50
	var rates []float64
	for _, w := range steps.windows(time.Second, span) {
		if len(w) > 0 {
			rates = append(rates, float64(env.spec.BatchSize*len(w))/(sum(w)/1000))
		}
	}
	out.e2e["throughput_per_s"] = median(rates)

	mae, _ := env.model.EvaluateMAE(env.val.X, env.val.Y)
	var saved bytes.Buffer
	if err := env.model.Save(&saved); err != nil {
		return nil, err
	}
	out.attempted = len(opt.steps)
	// Training must have lowered the held-out error; anything else means
	// the numbers above timed a broken fit.
	if math.IsNaN(mae) || mae >= env.untrained {
		out.failed = 1
		out.failures = append(out.failures, fmt.Sprintf("held-out MAE %.6f did not improve on the untrained %.6f", mae, env.untrained))
	}
	out.note("%s: %d samples, %d steps of %d, %.3fs in FitSource (%.2f samples/s overall)",
		s.model, samples, len(opt.steps), env.spec.BatchSize, wall.Seconds(), float64(samples)/wall.Seconds())
	var tail []string
	for _, p := range []float64{50, 95, 99} {
		v, beyond := percentile(steps.latMS, p)
		tail = append(tail, fmt.Sprintf("p%g %.4f ms (%d beyond)", p, v, beyond))
	}
	out.note("all steps: %s", strings.Join(tail, ", "))
	out.note("val_mae %.9g (untrained %.9g) over %d held-out rows", mae, env.untrained, len(env.val.X))
	out.note("model_sha256 %x", sha256.Sum256(saved.Bytes()))
	if !o.trace {
		return out, nil
	}

	l := out.layer
	var render []float64
	for _, sp := range tr.snapshot() {
		if sp.Name == spanCorpus {
			render = append(render, ms(sp.dur()))
		}
	}
	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		return nil, err
	}
	l["fit.render_batch_ms"] = mean(render)
	l["fit.render_wait_ms"] = histMeanMS(expo.String(), "specml_fit_render_wait_seconds")
	l["fit.compute_ms"] = histMeanMS(expo.String(), "specml_fit_compute_seconds")
	l["trace.p50_ms"] = p50
	l["trace.throughput_per_s"] = out.e2e["throughput_per_s"]

	batches := o.sweepBatches()
	idx := make([]int, (batches+1)*env.spec.BatchSize)
	for i := range idx {
		idx[i] = i % samples
	}
	rows, err := dataset.Materialize(env.train, idx)
	if err != nil {
		return nil, err
	}
	sweepOpt, err := nn.OptimizerByName(env.spec.Optimizer, env.spec.LR)
	if err != nil {
		return nil, err
	}
	perBatch, err := sweepStack(s, env.spec, env.model, sweepOpt, rows.X, env.spec.BatchSize, batches, l)
	if err != nil {
		return nil, err
	}
	if c := l["fit.compute_ms"]; c > 0 {
		l["fit.layer_coverage"] = perBatch / c
	}
	if o.spans != "" {
		if err := tr.writeJSONL(spansPath(o.spans, o.workload)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// histMeanMS is the mean observation, in ms, of a seconds histogram in a
// metrics exposition.
func histMeanMS(exposition, name string) float64 {
	t := histTotals(exposition, name, "")[""]
	if t[0] == 0 {
		return 0
	}
	return t[1] / t[0] * 1000
}
