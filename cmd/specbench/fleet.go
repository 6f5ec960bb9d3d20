package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"specml/internal/dataset"
	"specml/internal/front"
	"specml/internal/msim"
	"specml/internal/nmrsim"
	"specml/internal/nn"
	"specml/internal/obs"
	"specml/internal/serve"
)

// backendNames are the stable names the front knows its backends by. The
// ring hashes these names, so model and session placement is the same in
// every run; a dialer maps them to the ephemeral loopback listeners.
var backendNames = []string{"b0.bench:80", "b1.bench:80"}

// backend is one specserve instance listening on loopback.
type backend struct {
	srv  *serve.Server
	reg  *obs.Registry
	hs   *http.Server
	dir  string
	done chan struct{}
}

// fleet is one specfront and two specserve backends in this process, with
// the shipped serving defaults. The load generator calls the front's
// handler directly, so the only connections are the front's own hops.
type fleet struct {
	front     *front.Front
	frontReg  *obs.Registry
	transport *http.Transport
	backends  []*backend
	tr        *tracer
}

// startFleet writes models (name → nn.Save bytes) into a fresh model
// directory per backend and starts the fleet.
func startFleet(models map[string][]byte, tr *tracer) (*fleet, error) {
	f := &fleet{tr: tr, frontReg: obs.NewRegistry()}
	addrs := make(map[string]string, len(backendNames))
	for _, name := range backendNames {
		b, addr, err := startBackend(models, tr)
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, b)
		addrs[name] = addr
	}
	// The front's own default transport, plus the name mapping.
	f.transport = &http.Transport{
		MaxIdleConns:        256,
		MaxIdleConnsPerHost: 64,
		IdleConnTimeout:     90 * time.Second,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			real, ok := addrs[addr]
			if !ok {
				return nil, fmt.Errorf("specbench: no backend named %s", addr)
			}
			var d net.Dialer
			return d.DialContext(ctx, network, real)
		},
	}
	var rt http.RoundTripper = f.transport
	if tr != nil {
		rt = &hopTransport{base: f.transport, tr: tr}
	}
	urls := make([]string, len(backendNames))
	for i, name := range backendNames {
		urls[i] = "http://" + name
	}
	fr, err := front.New(front.Config{Backends: urls, Transport: rt, Metrics: f.frontReg})
	if err != nil {
		f.close()
		return nil, err
	}
	f.front = fr
	return f, nil
}

func startBackend(models map[string][]byte, tr *tracer) (*backend, string, error) {
	dir, err := os.MkdirTemp("", "specbench-models-")
	if err != nil {
		return nil, "", err
	}
	for name, data := range models {
		if err := os.WriteFile(filepath.Join(dir, name+".json"), data, 0o644); err != nil {
			os.RemoveAll(dir)
			return nil, "", err
		}
	}
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{
		MaxBatch:    32,
		BatchWindow: 5 * time.Millisecond,
		Workers:     0,
		ModelDir:    dir,
		Metrics:     reg,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		os.RemoveAll(dir)
		return nil, "", err
	}
	h := srv.Handler()
	if tr != nil {
		h = tracedHandler(h, tr)
	}
	b := &backend{srv: srv, reg: reg, hs: &http.Server{Handler: h}, dir: dir, done: make(chan struct{})}
	go func() {
		defer close(b.done)
		_ = b.hs.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return b, ln.Addr().String(), nil
}

// close stops the front, then each backend's listener, batchers and model
// directory, and waits for every server goroutine to exit.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if f.front != nil {
		_ = f.front.Close(ctx)
	}
	if f.transport != nil {
		f.transport.CloseIdleConnections()
	}
	for _, b := range f.backends {
		_ = b.hs.Shutdown(ctx)
		<-b.done
		_ = b.srv.Close(ctx)
		os.RemoveAll(b.dir)
	}
}

// call sends one request through the front's handler. root names the span
// a traced run records for it.
func (f *fleet) call(method, path, contentType, accept string, body []byte, root string) (int, []byte) {
	req, err := http.NewRequest(method, "http://front.bench"+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	rec := httptest.NewRecorder()
	if f.tr == nil {
		f.front.Handler().ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes()
	}
	s := span{Name: root, ID: f.tr.newID(), Start: f.tr.now()}
	req = req.WithContext(withSpan(req.Context(), s.ID))
	f.front.Handler().ServeHTTP(rec, req)
	s.End = f.tr.now()
	f.tr.record(s)
	return rec.Code, rec.Body.Bytes()
}

// stageSnap is a point-in-time (count, sum) of each serving stage and of
// the batch size, summed over backends and keyed by per-layer metric.
type stageSnap map[string][2]float64

// stageMetrics names the per-layer metric of each stage label of the
// specserve_stage_seconds histogram.
var stageMetrics = map[string]string{
	"decode":     "serve.decode_ms",
	"preprocess": "serve.preprocess_ms",
	"batch_wait": "serve.batch_wait_ms",
	"forward":    "serve.forward_ms",
	"encode":     "serve.encode_ms",
}

// stages scrapes every backend's metrics exposition, as GET /metrics
// serves it.
func (f *fleet) stages() (stageSnap, error) {
	snap := make(stageSnap)
	add := func(key string, t [2]float64) {
		v := snap[key]
		v[0] += t[0]
		v[1] += t[1]
		snap[key] = v
	}
	for _, b := range f.backends {
		var expo strings.Builder
		if err := b.reg.WritePrometheus(&expo); err != nil {
			return nil, err
		}
		for stage, t := range histTotals(expo.String(), "specserve_stage_seconds", "stage") {
			if key, ok := stageMetrics[stage]; ok {
				add(key, t)
			}
		}
		add("serve.batch_size_mean", histTotals(expo.String(), "specserve_batch_size", "")[""])
	}
	return snap, nil
}

// stageMeans turns two snapshots into per-observation means: stage times in
// ms, batch size as a count.
func stageMeans(before, after stageSnap, out map[string]float64) {
	for key, a := range after {
		b := before[key]
		n := a[0] - b[0]
		if n <= 0 {
			out[key] = 0
			continue
		}
		m := (a[1] - b[1]) / n
		if key != "serve.batch_size_mean" {
			m *= 1000
		}
		out[key] = m
	}
}

func (f *fleet) frontCounter(name string) uint64 { return f.frontReg.Counter(name, "").Value() }

// pool is one served model's inputs: SPB1 request frames and the outputs
// model.Predict gives for them.
type pool struct {
	stack  stack
	saved  []byte
	inputs [][]float64
	frames [][]byte
	want   [][]float64
}

// renderInputs renders n distinct network inputs for stack s from the
// corpus generators, seeded from seed, and makes each exactly invariant
// under serving preprocessing (see dyadic).
func renderInputs(s stack, n int, seed uint64) ([][]float64, error) {
	var src dataset.Source
	var err error
	switch s {
	case msTable1:
		var sim *msim.LineSimulator
		if sim, err = msLineSimulator(); err == nil {
			src, _, err = msim.NewTrainingStream(sim, msim.DefaultTrueModel(), msim.DefaultAxis(), n, 1.0, seed, msim.TrainingOptions{})
		}
	case nmrCNN:
		src, err = nmrAugmenter().TrainingStream(n, seed)
	case nmrLSTM:
		src, err = nmrAugmenter().TimeSeriesStream(n, lstmSteps, lstmMaxRepeat, seed)
	}
	if err != nil {
		return nil, err
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	d, err := dataset.Materialize(src, idx)
	if err != nil {
		return nil, err
	}
	for _, x := range d.X {
		dyadic(x)
	}
	return d.X, nil
}

// dyadic clips x to non-negative values and rescales it onto multiples of
// 2^-30 that sum to exactly 1. Every partial sum of such values is exact in
// float64, so clip-then-sum-normalize — what a server does to a request by
// default — returns x bit for bit in any summation order, and the server's
// answer must equal model.Predict(x).
func dyadic(x []float64) {
	const unit = 1 << 30
	sum, top := 0.0, 0
	for i, v := range x {
		if v > 0 {
			sum += v
		}
		if v > x[top] {
			top = i
		}
	}
	var total int64
	q := make([]int64, len(x))
	for i, v := range x {
		if v > 0 && sum > 0 {
			q[i] = int64(math.Floor(v / sum * unit))
		}
		total += q[i]
	}
	q[top] += unit - total
	for i := range x {
		x[i] = float64(q[i]) / unit
	}
}

// references computes model.Predict for every input of p, on one model
// copy per core.
func (p *pool) references() error {
	workers := runtime.GOMAXPROCS(0)
	p.want = make([][]float64, len(p.inputs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m, err := nn.Load(bytes.NewReader(p.saved))
			if err != nil {
				errs[w] = err
				return
			}
			for i := w; i < len(p.inputs); i += workers {
				p.want[i] = m.Predict(p.inputs[i])
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// buildModels builds the three stacks with weights drawn from seed and
// returns their nn.Save bytes by model name.
func buildModels(seed uint64) (map[string][]byte, error) {
	out := make(map[string][]byte, len(stacks))
	for i, s := range stacks {
		spec, err := s.spec(seed + uint64(i))
		if err != nil {
			return nil, err
		}
		m, err := spec.Build()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			return nil, err
		}
		out[s.model] = buf.Bytes()
	}
	return out, nil
}

func msLineSimulator() (*msim.LineSimulator, error) {
	comps, err := msim.Compounds(msim.DefaultTask...)
	if err != nil {
		return nil, err
	}
	return msim.NewLineSimulator(comps)
}

// lstmMaxRepeat bounds the plateau repeats of the time-series corpus.
const lstmMaxRepeat = 20

// nmrAugmenter is the NMR corpus generator over the true component models,
// with the low-field instrument's distortions.
func nmrAugmenter() *nmrsim.Augmenter {
	return &nmrsim.Augmenter{
		Axis:           nmrsim.Axis(),
		Components:     nmrsim.TrueComponents(),
		ConcLo:         []float64{0, 0, 0, 0},
		ConcHi:         []float64{0.6, 0.6, 0.6, 0.5},
		ShiftJitter:    0.008,
		WidthJitter:    0.05,
		NoiseSigma:     0.01,
		IntensityScale: 0.05,
	}
}
