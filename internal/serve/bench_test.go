package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"specml/internal/nn"
	"specml/internal/rng"
)

// benchModel mirrors a served MS network's shape: the 199-sample default
// m/z axis in, 8 substance fractions out.
func benchModel(b *testing.B) *nn.Model {
	b.Helper()
	m := nn.NewModel()
	m.Add(&nn.Dense{Out: 32})
	act, err := nn.ActivationByName("selu")
	if err != nil {
		b.Fatal(err)
	}
	m.Add(&nn.ActivationLayer{Act: act})
	m.Add(&nn.Dense{Out: 8})
	m.Add(&nn.SoftmaxLayer{})
	if err := m.Build(rng.New(7), 199); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkServePredict measures the full request path — JSON decode,
// preprocessing, micro-batcher, JSON encode — under concurrent load (32
// client goroutines regardless of core count), which is what lets the
// dispatcher actually coalesce: requests that queue while a forward pass
// runs leave together in the next flush.
func BenchmarkServePredict(b *testing.B) {
	srv, err := New(Config{MaxBatch: 32})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Registry().Register("bench", benchModel(b)); err != nil {
		b.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Close(ctx)
	}()
	body, err := json.Marshal(map[string]any{"model": "bench", "intensities": ramp(199, 1)})
	if err != nil {
		b.Fatal(err)
	}
	var failed atomic.Int64
	b.SetParallelism(max(1, 32/runtime.GOMAXPROCS(0)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(string(body)))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				failed.Add(1)
			}
		}
	})
	b.StopTimer()
	if n := failed.Load(); n > 0 {
		b.Fatalf("%d requests failed", n)
	}
	if sizes := batchSizes(srv); sizes.Count() > 0 {
		b.ReportMetric(sizes.Sum()/float64(sizes.Count()), "samples/batch")
	}
}

// BenchmarkBatcherPredict isolates the dispatcher + forward pass without
// HTTP/JSON overhead: the marginal cost of one batched inference.
func BenchmarkBatcherPredict(b *testing.B) {
	m := benchModel(b)
	batcher := newBatcher(32, func(xs [][]float64) ([][]float64, error) {
		return m.PredictBatch(xs, 0)
	}, "", nil, nil)
	defer batcher.Close()
	x, err := preprocessInput(ramp(199, 1), nil, "", m.InputLen())
	if err != nil {
		b.Fatal(err)
	}
	b.SetParallelism(max(1, 32/runtime.GOMAXPROCS(0)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := batcher.Predict(context.Background(), x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDirectPredict is the no-server baseline: one sequential
// Predict call per op, the number the batched path is amortizing against.
func BenchmarkDirectPredict(b *testing.B) {
	m := benchModel(b)
	x, err := preprocessInput(ramp(199, 1), nil, "", m.InputLen())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(x)
	}
}

// benchMonitorModel mirrors the served Table-2 NMR monitor stack: 5x1700-
// point rolling windows through LSTM(32) into a 4-component head — the
// recurrent model core.Monitor steps on every reactor tick. Until the
// batched LSTM kernels landed this was the one served stack the dispatcher
// had to split into per-sample Forward calls.
func benchMonitorModel(b *testing.B) *nn.Model {
	b.Helper()
	m := nn.NewModel()
	m.Add(nn.NewReshape(5, 1700))
	m.Add(nn.NewLSTM(32))
	m.Add(&nn.Dense{Out: 4})
	if err := m.Build(rng.New(9), 5*1700); err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkBatcherPredictMonitor is BenchmarkBatcherPredict on the
// recurrent monitor stack: coalesced windows now run through the batched
// GEMM LSTM kernels instead of falling back to one Forward per request.
func BenchmarkBatcherPredictMonitor(b *testing.B) {
	m := benchMonitorModel(b)
	batcher := newBatcher(32, func(xs [][]float64) ([][]float64, error) {
		return m.PredictBatch(xs, 0)
	}, "", nil, nil)
	defer batcher.Close()
	x, err := preprocessInput(ramp(5*1700, 1), nil, "", m.InputLen())
	if err != nil {
		b.Fatal(err)
	}
	b.SetParallelism(max(1, 32/runtime.GOMAXPROCS(0)))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := batcher.Predict(context.Background(), x); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDirectPredictMonitor is the sequential per-window baseline the
// batched monitor path is amortizing against.
func BenchmarkDirectPredictMonitor(b *testing.B) {
	m := benchMonitorModel(b)
	x, err := preprocessInput(ramp(5*1700, 1), nil, "", m.InputLen())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(x)
	}
}
