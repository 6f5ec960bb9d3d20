package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"specml/internal/nmrsim"
	"specml/internal/nn"
	"specml/internal/rng"
	"specml/internal/serve"
)

// Frozen load parameters of the serving workloads. The rates are about half
// of the fleet's saturation throughput on the 2-core host the benchmark was
// defined on, where the 5 ms batch window coalesces several requests.
const (
	predictRate = 1400.0 // requests/s in serve-predict's fixed-rate phase
	monitorRate = 1000.0 // steps/s in serve-monitor's fixed-rate phase
	predictSLO  = 50 * time.Millisecond
	monitorSLO  = 100 * time.Millisecond
	// closedClients is the closed loop's concurrency. 32 outstanding
	// requests over the batchers do not fill every batch, so throughput is
	// about clients / (batch window + forward pass + hops): it moves with
	// per-request service time at twice the fixed rate's load. 128 clients
	// fill the batches but make the throughput two to three times noisier
	// from run to run on a 2-core host.
	closedClients  = 32
	monitorSlots   = 64
	rotateEvery    = 2 * time.Second
	publishEvery   = 3 * time.Second
	maxOutstanding = 4096

	// The end-to-end serving numbers are medians over windows of a phase:
	// the latency percentile per second of the fixed-rate phase,
	// completions per half second of the closed loop.
	latencyWindow = time.Second
	rateWindow    = 500 * time.Millisecond
)

// serveEnv is one set-up serving system and the inputs it will be sent.
type serveEnv struct {
	fleet *fleet
	pools []*pool // serve-predict: ms-table1, nmr-cnn; serve-monitor: nmr-lstm
}

func setupServe(o opts, monitor bool, tr *tracer) (*serveEnv, error) {
	models, err := buildModels(o.seed)
	if err != nil {
		return nil, err
	}
	served := []stack{msTable1, nmrCNN}
	if monitor {
		served = []stack{nmrLSTM}
	}
	env := &serveEnv{}
	for i, s := range served {
		xs, err := renderInputs(s, o.poolSize(s), o.seed+100+uint64(i))
		if err != nil {
			return nil, err
		}
		p := &pool{stack: s, saved: models[s.model], inputs: xs, frames: make([][]byte, len(xs))}
		name := s.model
		if monitor {
			name = "" // the session pins the model
		}
		for j, x := range xs {
			if p.frames[j], err = serve.AppendPredictRequestBinary(nil, &serve.PredictRequest{Model: name, Intensities: x}); err != nil {
				return nil, err
			}
		}
		env.pools = append(env.pools, p)
	}
	if env.fleet, err = startFleet(models, tr); err != nil {
		return nil, err
	}
	return env, nil
}

// session is one live monitor session and the steps in flight on it.
type session struct {
	id       string
	inflight sync.WaitGroup
}

// serveRun drives one serving workload against a set-up environment.
type serveRun struct {
	env   *serveEnv
	out   *outcome
	mu    sync.Mutex
	slots []*session // serve-monitor: the session each slot steps
	nSess int
	extra phaseResult // requests outside the load phases: sessions, writes
}

func (r *serveRun) fail(format string, args ...any) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.out.failures) < 5 {
		r.out.failures = append(r.out.failures, fmt.Sprintf(format, args...))
	}
	return false
}

func (r *serveRun) predict(a arrival) bool {
	p := r.env.pools[a.kind]
	status, body := r.env.fleet.call(http.MethodPost, "/v1/predict", serve.BinaryContentType, serve.BinaryContentType, p.frames[a.input], spanRequest)
	if status != http.StatusOK {
		return r.fail("predict %s[%d]: status %d: %s", p.stack.model, a.input, status, body)
	}
	_, got, err := serve.ParsePredictResponseBinary(body)
	if err != nil {
		return r.fail("predict %s[%d]: %v", p.stack.model, a.input, err)
	}
	if !sameBits(got, p.want[a.input]) {
		return r.fail("predict %s[%d]: fractions %v, want %v", p.stack.model, a.input, got, p.want[a.input])
	}
	return true
}

func (r *serveRun) step(a arrival) bool {
	p := r.env.pools[0]
	r.mu.Lock()
	s := r.slots[a.kind]
	s.inflight.Add(1)
	r.mu.Unlock()
	defer s.inflight.Done()
	status, body := r.env.fleet.call(http.MethodPost, "/v1/monitor/"+s.id+"/step", serve.BinaryContentType, "", p.frames[a.input], spanRequest)
	if status != http.StatusOK {
		return r.fail("step %s[%d]: status %d: %s", s.id, a.input, status, body)
	}
	var resp struct {
		Prediction []float64 `json:"prediction"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return r.fail("step %s[%d]: %v", s.id, a.input, err)
	}
	if !sameBits(resp.Prediction, p.want[a.input]) {
		return r.fail("step %s[%d]: prediction %v, want %v", s.id, a.input, resp.Prediction, p.want[a.input])
	}
	return true
}

// openSession creates a monitor session with a client-chosen ID, so the
// ring places the same sessions on the same backends in every run.
func (r *serveRun) openSession() (*session, bool) {
	r.mu.Lock()
	r.nSess++
	s := &session{id: fmt.Sprintf("sb-%04d", r.nSess)}
	r.mu.Unlock()
	limits := make([]map[string]any, len(nmrsim.ComponentNames))
	for i, n := range nmrsim.ComponentNames {
		limits[i] = map[string]any{"name": n, "min": 0.0, "max": 0.5}
	}
	body, err := json.Marshal(map[string]any{
		"model": nmrLSTM.model, "session": s.id, "names": nmrsim.ComponentNames, "limits": limits,
	})
	if err != nil {
		return nil, r.fail("open session: %v", err)
	}
	status, resp := r.env.fleet.call(http.MethodPost, "/v1/monitor", "application/json", "", body, spanWrite)
	if status != http.StatusOK {
		return nil, r.fail("open session %s: status %d: %s", s.id, status, resp)
	}
	return s, true
}

// rotate replaces the session of one slot: the new session opens first,
// new steps go to it, and the old one closes once its in-flight steps are
// answered, so no step ever targets a closed session.
func (r *serveRun) rotate(slot int) bool {
	s, ok := r.openSession()
	if !ok {
		return false
	}
	r.mu.Lock()
	old := r.slots[slot]
	r.slots[slot] = s
	r.mu.Unlock()
	old.inflight.Wait()
	status, body := r.env.fleet.call(http.MethodDelete, "/v1/monitor/"+old.id, "", "", nil, spanWrite)
	if status != http.StatusOK {
		return r.fail("close session %s: status %d: %s", old.id, status, body)
	}
	return true
}

// publish republishes the served LSTM weights through the front, which
// broadcasts them to every backend.
func (r *serveRun) publish() bool {
	status, body := r.env.fleet.call(http.MethodPut, "/v1/models/"+nmrLSTM.model, "application/json", "", r.env.pools[0].saved, spanWrite)
	if status != http.StatusOK {
		return r.fail("publish: status %d: %s", status, body)
	}
	return true
}

// writes runs serve-monitor's registry writes beside the fixed-rate steps:
// a session rotation every rotateEvery and a publish every publishEvery,
// both on a fixed schedule from start, until d has passed. It returns the
// publish latencies in ms.
func (r *serveRun) writes(start time.Time, d time.Duration) []float64 {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var publishMS []float64
	every := func(period time.Duration, op func(k int) bool, lat *[]float64) {
		defer wg.Done()
		for k := 1; time.Duration(k)*period < d; k++ {
			due := start.Add(time.Duration(k) * period)
			time.Sleep(time.Until(due))
			t0 := time.Now()
			ok := op(k)
			took := time.Since(t0)
			mu.Lock()
			r.extra.record(ok, took, time.Hour, 0)
			if ok && lat != nil {
				*lat = append(*lat, durMS(took))
			}
			mu.Unlock()
		}
	}
	wg.Add(2)
	go every(rotateEvery, func(k int) bool { return r.rotate((k - 1) % monitorSlots) }, nil)
	go every(publishEvery, func(int) bool { return r.publish() }, &publishMS)
	wg.Wait()
	return publishMS
}

func runServe(o opts, monitor bool) (*outcome, error) {
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	out := newOutcome()
	env, setupS, err := repeatSetup(func() (*serveEnv, error) { return setupServe(o, monitor, tr) }, func(e *serveEnv) { e.fleet.close() })
	if err != nil {
		return nil, err
	}
	defer env.fleet.close()
	out.e2e["setup_s"] = setupS
	for _, p := range env.pools {
		if err := p.references(); err != nil {
			return nil, err
		}
		if o.tamper != nil {
			o.tamper(p.want)
		}
	}

	r := &serveRun{env: env, out: out}
	rate, slo, kinds, send := predictRate, predictSLO, len(env.pools), r.predict
	if monitor {
		rate, slo, kinds, send = monitorRate, monitorSLO, monitorSlots, r.step
		for i := 0; i < monitorSlots; i++ {
			s, ok := r.openSession()
			r.extra.record(ok, 0, time.Hour, 0)
			if !ok {
				return nil, fmt.Errorf("specbench: opening monitor sessions: %v", out.failures)
			}
			r.slots = append(r.slots, s)
		}
	}
	poolN := len(env.pools[0].inputs)
	warmD, openD, closedD := o.phases()

	warm := openLoop(wallClock{}, time.Now(), poissonSchedule(o.seed+1, rate, warmD, kinds, poolN), maxOutstanding, slo, send)
	runtime.GC()
	heap := startHeapSampler()
	var before, after stageSnap
	var t0, t1 int64
	if tr != nil {
		if before, err = env.fleet.stages(); err != nil {
			return nil, err
		}
		t0 = tr.now()
	}
	cpu0 := cpuTime()
	start := time.Now()
	var publishMS []float64
	var wg sync.WaitGroup
	if monitor {
		wg.Add(1)
		go func() {
			defer wg.Done()
			publishMS = r.writes(start, openD)
		}()
	}
	open := openLoop(wallClock{}, start, poissonSchedule(o.seed, rate, openD, kinds, poolN), maxOutstanding, slo, send)
	wg.Wait()
	openCPU := cpuTime() - cpu0
	if tr != nil {
		t1 = tr.now()
		if after, err = env.fleet.stages(); err != nil {
			return nil, err
		}
	}
	closed := closedLoop(closedClients, o.seed+2, closedD, slo, func(src *rng.Source) arrival {
		return arrival{kind: src.Intn(kinds), input: src.Intn(poolN)}
	}, send)
	out.e2e["peak_heap_mib"] = heap.stopMiB()

	for _, p := range []*phaseResult{warm, open, closed, &r.extra} {
		out.attempted += p.attempted()
		out.failed += p.failN
	}
	if open.okN == 0 || closed.okN == 0 {
		return nil, fmt.Errorf("specbench: no successful requests: %v", out.failures)
	}
	p50 := open.windowedPercentile(50, latencyWindow, openD)
	out.e2e["p50_ms"] = p50
	out.e2e["throughput_per_s"] = closed.windowedRate(rateWindow, closedD)
	out.e2e["cpu_ms_per_op"] = durMS(openCPU) / float64(open.attempted())
	lateP99, _ := percentile(open.lateMS, 99)
	out.note("fixed-rate phase: %d requests at %.0f/s, slo_frac %.5f (limit %v)", open.attempted(), rate, float64(open.inSLO)/float64(open.attempted()), slo)
	var tail []string
	for _, p := range []float64{50, 95, 99, 99.9} {
		v, beyond := percentile(open.latMS, p)
		tail = append(tail, fmt.Sprintf("p%g %.4f ms (%d beyond)", p, v, beyond))
	}
	out.note("whole phase: %s; windowed p95 %.4f ms; generator late p99 %.4f ms",
		strings.Join(tail, ", "), open.windowedPercentile(95, latencyWindow, openD), lateP99)
	out.note("closed loop: %d clients, %d completions in %.2fs", closedClients, closed.okN, closed.wall.Seconds())
	if monitor {
		pub := math.NaN()
		if len(publishMS) > 0 {
			pub, _ = percentile(publishMS, 50)
		}
		out.note("publish_p50_ms %.4f over %d publishes", pub, len(publishMS))
	}
	out.note("front retries %d, shed %d; ring owners %s", env.fleet.frontCounter("specfront_retries_total"),
		env.fleet.frontCounter("specfront_shed_total"), ringOwners(env))
	if lateP99 > 10 {
		out.note("WARNING: the generator ran late (p99 %.1f ms); latency includes its stall", lateP99)
	}
	if !o.trace {
		return out, nil
	}

	l := out.layer
	st := analyzeSpans(tr.snapshot(), t0, t1)
	l["front.self_ms"] = st.frontSelfMS
	l["front.hop_ms"] = st.hopMS
	l["serve.handler_ms"] = st.handlerMS
	l["serve.publish_ms"] = st.publishMS
	stageMeans(before, after, l)
	l["gen.late_p99_ms"] = lateP99
	l["trace.p50_ms"] = p50
	l["trace.throughput_per_s"] = out.e2e["throughput_per_s"]
	n := int(math.Round(l["serve.batch_size_mean"]))
	if n < 1 {
		n = 1
	}
	for _, p := range env.pools {
		spec, err := p.stack.spec(o.seed)
		if err != nil {
			return nil, err
		}
		m, err := nn.Load(bytes.NewReader(p.saved))
		if err != nil {
			return nil, err
		}
		opt, err := nn.OptimizerByName(spec.Optimizer, spec.LR)
		if err != nil {
			return nil, err
		}
		if _, err := sweepStack(p.stack, spec, m, opt, p.inputs, n, o.sweepBatches(), l); err != nil {
			return nil, err
		}
	}
	out.note("nn sweep at the mean served batch size %d", n)
	if o.spans != "" {
		if err := tr.writeJSONL(spansPath(o.spans, o.workload)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ringOwners names the backend each served model hashes to.
func ringOwners(env *serveEnv) string {
	ring := env.fleet.front.Ring()
	var b bytes.Buffer
	for _, p := range env.pools {
		fmt.Fprintf(&b, "%s→%v ", p.stack.model, ring.Replicas(p.stack.model, 1))
	}
	return b.String()
}
