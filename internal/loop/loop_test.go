package loop

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"specml/internal/core"
	"specml/internal/front"
	"specml/internal/msim"
	"specml/internal/nn"
	"specml/internal/serve"
	"specml/internal/toolflow"
)

func testContext(t *testing.T) (context.Context, context.CancelFunc) {
	t.Helper()
	return context.WithTimeout(context.Background(), 30*time.Second)
}

// loopTask is a small compound subset that keeps test training fast while
// leaving enough spectral structure for characterization to work.
var loopTask = []string{"N2", "O2", "CO2"}

// baselineBytes trains the fleet's starting model once per test binary: a
// small dense net on the undrifted default instrument over the canonical
// axis. Every test run seeds its backends with copies of these bytes, so
// repeated runs serve bit-identical predictions.
var (
	baselineOnce  sync.Once
	baselineModel []byte
	baselineErr   error
)

func baseline(t *testing.T) []byte {
	t.Helper()
	baselineOnce.Do(func() {
		comps, err := msim.Compounds(loopTask...)
		if err != nil {
			baselineErr = err
			return
		}
		sim, err := msim.NewLineSimulator(comps)
		if err != nil {
			baselineErr = err
			return
		}
		axis := msim.DefaultAxis()
		d, err := msim.GenerateTraining(sim, msim.DefaultTrueModel(), axis, 768, 1.0, 11, 4)
		if err != nil {
			baselineErr = err
			return
		}
		spec := toolflow.TopologySpec{
			Name: "loop-baseline",
			Layers: []nn.LayerSpec{
				{Type: "dense", Out: 48},
				{Type: "activation", Activation: "relu"},
				{Type: "dense", Out: sim.NumCompounds()},
				{Type: "softmax"},
			},
			Loss: "mae", Optimizer: "adam", LR: 0.003,
			Epochs: 30, BatchSize: 32, Seed: 11, KeepBest: true,
			InputShape: []int{axis.N}, Workers: 4,
		}
		res, err := (&toolflow.Runner{}).Train(spec, d, d)
		if err != nil {
			baselineErr = err
			return
		}
		var buf bytes.Buffer
		if err := res.Model.Save(&buf); err != nil {
			baselineErr = err
			return
		}
		baselineModel = buf.Bytes()
	})
	if baselineErr != nil {
		t.Fatalf("training baseline model: %v", baselineErr)
	}
	return baselineModel
}

// bootFleet stands up a specfront over n specserve backends, each holding
// the baseline model as "fleet" in its own model directory, and returns the
// front's base URL.
func bootFleet(t *testing.T, n int) string {
	t.Helper()
	model := baseline(t)
	urls := make([]string, n)
	for i := range urls {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "fleet.json"), model, 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := serve.New(serve.Config{
			ModelDir:       dir,
			RequestTimeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		urls[i] = hs.URL
		t.Cleanup(func() {
			hs.Close()
			ctx, cancel := testContext(t)
			defer cancel()
			_ = srv.Close(ctx)
		})
	}
	fr, err := front.New(front.Config{
		Backends:       urls,
		HealthInterval: 50 * time.Millisecond,
		RetryBackoff:   time.Millisecond,
		SessionPrefix:  "loop",
	})
	if err != nil {
		t.Fatal(err)
	}
	fs := httptest.NewServer(fr.Handler())
	t.Cleanup(func() {
		fs.Close()
		ctx, cancel := testContext(t)
		defer cancel()
		_ = fr.Close(ctx)
	})
	return fs.URL
}

// loopConfig is the shared closed-loop scenario: 3 devices, device 1 starts
// drifting hard at scan 8, detectors auto-calibrate on the first 6 healthy
// steps, and a trip retrains a dense model on a 2x-refined axis — so the
// recalibrated publish changes the served input width.
func loopConfig() Config {
	return Config{
		Devices: 3,
		Steps:   26,
		Seed:    7,
		Model:   "fleet",
		Workers: 3,
		Task:    loopTask,
		Drift: DriftSpec{
			Device: 1,
			Schedule: msim.DriftSchedule{
				StartScan:   8,
				RampScans:   4,
				MassShift:   0.7,
				GainTilt:    3.0,
				FWHMGrowth:  1.0,
				NoiseGrowth: 3.0,
			},
		},
		Detector: DetectorSpec{
			DriftConfig:     core.DriftConfig{Smoothing: 0.5, Warmup: 2},
			Calibrate:       6,
			ThresholdFactor: 1.8,
			TripFactor:      4,
		},
		Recal: RecalSpec{
			Samples:   48,
			Epochs:    2,
			Batch:     16,
			TrainFrac: 0.8,
			AxisScale: 2,
			Topology:  "dense",
			Hidden:    16,
			Workers:   2,
		},
		Churn: 2,
	}
}

func runOnce(t *testing.T) Report {
	t.Helper()
	base := bootFleet(t, 2)
	l, err := New(loopConfig(), NewHTTPClient(base, nil))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.Run()
	if err != nil {
		t.Fatalf("loop run: %v (report %+v)", err, rep)
	}
	return rep
}

// TestClosedLoopRecalibrates drives the full loop against a real
// front+2-backend fleet twice and checks both the closed-loop semantics
// (drift detected on the right device, exactly one re-characterize →
// retrain → publish → reload, no 5xx) and the determinism contract: equal
// seeds and drift schedules give bitwise-identical trip step, retrained
// model bytes and reload count.
func TestClosedLoopRecalibrates(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop integration test")
	}
	first := runOnce(t)
	if first.TripStep < 0 {
		t.Fatalf("forced drift never tripped: %+v", first)
	}
	if first.TripDevice != 1 {
		t.Fatalf("trip on device %d, want the drifted device 1 (%+v)", first.TripDevice, first)
	}
	if first.TripStep <= 8 {
		t.Fatalf("trip at step %d is before the drift even started", first.TripStep)
	}
	if first.Recals != 1 || first.Reloads != 1 {
		t.Fatalf("want exactly one recal and one reload, got %+v", first)
	}
	if len(first.ModelSHA256) != 64 {
		t.Fatalf("missing retrained model digest: %+v", first)
	}
	if first.Server5xx != 0 {
		t.Fatalf("fleet surfaced %d 5xx responses during the run", first.Server5xx)
	}
	if first.ResidualAtTrip <= first.Threshold {
		t.Fatalf("trip residual %g not above allowance %g", first.ResidualAtTrip, first.Threshold)
	}

	second := runOnce(t)
	if second.TripStep != first.TripStep || second.TripDevice != first.TripDevice {
		t.Fatalf("trip not deterministic: %d/%d vs %d/%d",
			first.TripStep, first.TripDevice, second.TripStep, second.TripDevice)
	}
	if second.ModelSHA256 != first.ModelSHA256 {
		t.Fatalf("retrained model bytes not deterministic:\n%s\n%s", first.ModelSHA256, second.ModelSHA256)
	}
	if second.Reloads != first.Reloads {
		t.Fatalf("reload count not deterministic: %d vs %d", first.Reloads, second.Reloads)
	}
}

// fakeClient is a fleet stand-in whose predictions are a fixed deterministic
// blend toward uniform — residuals are positive and stable, so calibration
// succeeds and nothing ever trips.
type fakeClient struct {
	mu       sync.Mutex
	sessions int
	outputs  int
}

func (f *fakeClient) CreateSession(model string, smoothing float64, names []string) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.sessions++
	f.outputs = len(names)
	return fmt.Sprintf("fake-%d", f.sessions), nil
}

func (f *fakeClient) Step(session string, axisStart, axisStep float64, intensities []float64) ([]float64, error) {
	f.mu.Lock()
	k := f.outputs
	f.mu.Unlock()
	out := make([]float64, k)
	for i := range out {
		out[i] = 1 / float64(k)
	}
	return out, nil
}

func (f *fakeClient) Predict(model string, axisStart, axisStep float64, intensities []float64) error {
	return nil
}
func (f *fakeClient) Publish(name string, data []byte) error { return nil }
func (f *fakeClient) Reload() error                          { return nil }
func (f *fakeClient) Counts() ClientCounts                   { return ClientCounts{} }

// TestLoopHealthyFleetNeverTrips: uniform predictions give a stable nonzero
// residual, so auto-calibration resolves levels and the run ends with no
// trip, no recal, and a final residual below the allowance.
func TestLoopHealthyFleetNeverTrips(t *testing.T) {
	cfg := loopConfig()
	cfg.Drift.Device = -1
	cfg.Churn = 0
	fc := &fakeClient{}
	l, err := New(cfg, fc)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := l.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.TripStep != -1 || rep.Recals != 0 || rep.Reloads != 0 {
		t.Fatalf("healthy fleet tripped: %+v", rep)
	}
	if fc.sessions != cfg.Devices {
		t.Fatalf("opened %d sessions for %d devices", fc.sessions, cfg.Devices)
	}
	if !rep.BelowThreshold {
		t.Fatalf("stable residual %g should sit below allowance %g", rep.FinalResidual, rep.Threshold)
	}
}

func TestLoopRejectsBadConfig(t *testing.T) {
	cfg := loopConfig()
	cfg.Devices = 0
	if _, err := New(cfg, &fakeClient{}); err == nil {
		t.Fatal("zero devices accepted")
	}
	cfg = loopConfig()
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("nil client accepted")
	}
	cfg = loopConfig()
	cfg.Drift.Device = cfg.Devices
	if _, err := New(cfg, &fakeClient{}); err == nil {
		t.Fatal("out-of-range drift device accepted")
	}
}
