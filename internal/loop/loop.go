package loop

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"specml/internal/core"
	"specml/internal/dataset"
	"specml/internal/msim"
	"specml/internal/nn"
	"specml/internal/obs"
	"specml/internal/parallel"
	"specml/internal/rng"
	"specml/internal/spectrum"
	"specml/internal/toolflow"
)

// device is one simulated instrument in the fleet. Each device is mutated
// only by its own goroutine within a wave and by the loop goroutine between
// waves, so no locking is needed.
type device struct {
	vi      *msim.VirtualInstrument
	fracs   *rng.Source
	session string
	det     *core.DriftDetector

	// calibration accumulators, used only while det == nil
	calSum   float64
	calCount int

	threshold float64 // resolved detector allowance (for the report)
	handled   bool    // this device's trip already triggered a recal
	stepErr   error
}

// Loop drives the closed recalibration loop of one fleet run.
type Loop struct {
	// Metrics optionally receives loop telemetry; Verbose progress lines.
	// Both must be set before Run.
	Metrics *obs.Registry
	Verbose io.Writer

	cfg     Config
	client  Client
	sim     *msim.LineSimulator
	axis    spectrum.Axis
	devices []*device
	mx      *loopMetrics

	// pre-drawn recalibration seeds (split-rng contract: drawn from the
	// root stream in a fixed order at construction, not at trip time)
	recalSeed, splitSeed, trainSeed uint64

	report Report
}

// New validates the configuration and builds the fleet. The client is the
// serving side — an HTTPClient against a specfront URL in production.
//
// Seed derivation is part of the determinism contract: the root stream
// seeds each device's instrument and mixture streams in device order, then
// the three recalibration seeds, so every stochastic consumer has its own
// independent child stream whose identity does not depend on timing.
func New(cfg Config, client Client) (*Loop, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if client == nil {
		return nil, fmt.Errorf("loop: client must not be nil")
	}
	task := cfg.Task
	if len(task) == 0 {
		task = msim.DefaultTask
	}
	comps, err := msim.Compounds(task...)
	if err != nil {
		return nil, err
	}
	sim, err := msim.NewLineSimulator(comps)
	if err != nil {
		return nil, err
	}
	axis, err := cfg.Axis.Axis()
	if err != nil {
		return nil, err
	}
	l := &Loop{cfg: cfg, client: client, sim: sim, axis: axis}
	root := rng.New(cfg.Seed)
	l.devices = make([]*device, cfg.Devices)
	for i := range l.devices {
		viSeed := root.Uint64()
		fracSeed := root.Uint64()
		vi := msim.NewVirtualInstrument(nil, viSeed)
		vi.NewSession()
		if cfg.Drift.Device == i {
			sched := cfg.Drift.Schedule
			if err := vi.SetDriftSchedule(&sched); err != nil {
				return nil, err
			}
		}
		d := &device{vi: vi, fracs: rng.New(fracSeed)}
		if cfg.Detector.Calibrate == 0 {
			det, err := core.NewDriftDetector(cfg.Detector.DriftConfig)
			if err != nil {
				return nil, err
			}
			d.det = det
			d.threshold = cfg.Detector.Threshold
		}
		l.devices[i] = d
	}
	l.recalSeed = root.Uint64()
	l.splitSeed = root.Uint64()
	l.trainSeed = root.Uint64()
	return l, nil
}

func (l *Loop) logf(format string, args ...any) {
	if l.Verbose != nil {
		fmt.Fprintf(l.Verbose, format+"\n", args...)
	}
}

// Run executes the closed loop: open monitor sessions, step the fleet in
// waves, watch residuals, and on a detector trip run the recalibration
// pipeline (re-characterize → streamed retrain → publish → fleet reload).
// The returned Report is the e2e gate's input.
func (l *Loop) Run() (Report, error) {
	l.mx = newLoopMetrics(l.Metrics)
	l.report = Report{Devices: l.cfg.Devices, Steps: l.cfg.Steps, TripStep: -1, TripDevice: -1}
	for i, d := range l.devices {
		id, err := l.client.CreateSession(l.cfg.Model, l.cfg.Smoothing, l.sim.Names())
		if err != nil {
			return l.report, fmt.Errorf("loop: opening session for device %d: %w", i, err)
		}
		d.session = id
	}
	l.logf("loop: %d devices on sessions, %d steps", l.cfg.Devices, l.cfg.Steps)
	for step := 1; step <= l.cfg.Steps; step++ {
		if err := l.wave(step); err != nil {
			return l.finish(), err
		}
		for i, d := range l.devices {
			if d.det == nil || !d.det.Tripped() || d.handled {
				continue
			}
			d.handled = true
			inc(l.mx.trips)
			if l.report.TripStep < 0 {
				l.report.TripStep = step
				l.report.TripDevice = i
				l.report.ResidualAtTrip = d.det.EWMA()
			}
			l.logf("loop: device %d tripped at step %d (residual %.5f, allowance %.5f)",
				i, step, d.det.EWMA(), d.threshold)
			if l.report.Recals >= l.cfg.Recal.MaxRecals {
				l.logf("loop: recal budget exhausted, trip on device %d left standing", i)
				continue
			}
			if err := l.recalibrate(d); err != nil {
				return l.finish(), fmt.Errorf("loop: recalibrating after device %d tripped: %w", i, err)
			}
		}
	}
	return l.finish(), nil
}

// wave steps every device once, in parallel. Device state is partitioned
// per goroutine; the barrier at the end of parallel.For makes the
// subsequent trip arbitration deterministic.
func (l *Loop) wave(step int) error {
	err := parallel.For(l.cfg.Workers, len(l.devices), func(_, i int) error {
		d := l.devices[i]
		d.stepErr = l.stepDevice(d)
		return d.stepErr
	})
	if err != nil {
		for i, d := range l.devices {
			if d.stepErr != nil {
				return fmt.Errorf("loop: step %d device %d: %w", step, i, d.stepErr)
			}
		}
		return fmt.Errorf("loop: step %d: %w", step, err)
	}
	add(l.mx.steps, uint64(len(l.devices)))
	maxRes := 0.0
	for _, d := range l.devices {
		if d.det != nil && d.det.EWMA() > maxRes {
			maxRes = d.det.EWMA()
		}
	}
	setGauge(l.mx.maxResidual, maxRes)
	l.logf("loop: step %d max smoothed residual %.4f", step, maxRes)
	return nil
}

// stepDevice draws a mixture, measures it on the device's (possibly
// drifting) instrument, routes the spectrum through the fleet's monitor
// session, and feeds |prediction − ground truth| to the device's drift
// detector — auto-calibrating the detector's levels from the first
// Calibrate healthy steps when configured to.
func (l *Loop) stepDevice(d *device) error {
	fracs := l.sim.RandomFractions(d.fracs, l.cfg.Alpha)
	ls, err := l.sim.Mixture(fracs)
	if err != nil {
		return err
	}
	sp, err := d.vi.Measure(ls, l.axis)
	if err != nil {
		return err
	}
	pred, err := l.client.Step(d.session, l.axis.Start, l.axis.Step, sp.Intensities)
	if err != nil {
		return err
	}
	res, err := meanAbsResidual(pred, fracs)
	if err != nil {
		return err
	}
	if d.det == nil {
		d.calSum += res
		d.calCount++
		if d.calCount >= l.cfg.Detector.Calibrate {
			mean := d.calSum / float64(d.calCount)
			if mean <= 0 || math.IsNaN(mean) {
				return fmt.Errorf("loop: calibration produced a degenerate residual level %g", mean)
			}
			dc := l.cfg.Detector.DriftConfig
			dc.Threshold = l.cfg.Detector.ThresholdFactor * mean
			dc.Trip = l.cfg.Detector.TripFactor * mean
			det, err := core.NewDriftDetector(dc)
			if err != nil {
				return err
			}
			d.det = det
			d.threshold = dc.Threshold
		}
		return nil
	}
	_, err = d.det.Observe(res)
	return err
}

// meanAbsResidual mirrors core.DriftDetector.Step's residual definition so
// the calibration phase measures exactly what the detector will see.
func meanAbsResidual(pred, truth []float64) (float64, error) {
	if len(pred) != len(truth) || len(pred) == 0 {
		return 0, fmt.Errorf("loop: prediction width %d vs truth width %d", len(pred), len(truth))
	}
	sum := 0.0
	for i, p := range pred {
		v := math.Abs(p - truth[i])
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("loop: non-finite residual at output %d", i)
		}
		sum += v
	}
	return sum / float64(len(pred)), nil
}

// recalibrate runs the repair pipeline for a tripped device:
// re-characterize its drifted instrument from fresh reference measurements,
// stream a training corpus from the new estimate, retrain (checkpointed,
// resumable), publish the weights fleet-wide and hot-reload every backend —
// with churn workers hammering the predict path across the publish window
// so the 409 stale-width contract is exercised under load.
func (l *Loop) recalibrate(d *device) error {
	r := l.cfg.Recal
	l.logf("loop: re-characterizing drifted instrument (%d reference samples/mixture)", r.RefSamples)
	refs, err := msim.CollectReferences(d.vi, l.sim, l.axis,
		msim.StandardMixtures(l.sim.NumCompounds()), r.RefSamples)
	if err != nil {
		return err
	}
	ch := &msim.Characterizer{Task: l.sim.Compounds(), IgnitionMZ: msim.DefaultTrueModel().IgnitionMZ}
	est, err := ch.Estimate(refs)
	if err != nil {
		return err
	}
	// The corpus is always rendered on the device axis — that is what the
	// fleet's instruments send. With AxisScale > 1 the published model takes
	// a refined width, and the serving layer will resample every live
	// request onto it; resampleSource applies that exact transform to the
	// training rows so the retrained model is fit in the serving domain.
	trainAxis := l.axis
	stream, _, err := msim.NewTrainingStream(l.sim, est, l.axis, r.Samples, l.cfg.Alpha,
		l.recalSeed, msim.TrainingOptions{})
	if err != nil {
		return err
	}
	var src dataset.Source = stream
	if r.AxisScale > 1 {
		trainAxis, err = spectrum.NewAxis(l.axis.Start, l.axis.Step/float64(r.AxisScale),
			(l.axis.N-1)*r.AxisScale+1)
		if err != nil {
			return err
		}
		src, err = newResampleSource(stream, l.axis, trainAxis)
		if err != nil {
			return err
		}
	}
	trainIdx, valIdx, err := dataset.SplitIndices(r.Samples, r.TrainFrac, rng.New(l.splitSeed))
	if err != nil {
		return err
	}
	trainSrc, err := dataset.Select(src, trainIdx)
	if err != nil {
		return err
	}
	val, err := dataset.Materialize(src, valIdx)
	if err != nil {
		return err
	}
	spec, err := l.topologySpec(trainAxis.N)
	if err != nil {
		return err
	}
	l.logf("loop: retraining %s on %d streamed samples (width %d)", spec.Name, r.Samples, trainAxis.N)
	t0 := time.Now()
	runner := &toolflow.Runner{Verbose: l.Verbose}
	result, err := runner.TrainSource(spec, trainSrc, val)
	if err != nil {
		return err
	}
	observeSince(l.mx.retrainSec, t0)
	var buf bytes.Buffer
	if err := result.Model.Save(&buf); err != nil {
		return err
	}
	sum := sha256.Sum256(buf.Bytes())
	l.report.ModelSHA256 = hex.EncodeToString(sum[:])

	stop := l.startChurn()
	t1 := time.Now()
	pubErr := l.client.Publish(l.cfg.Model, buf.Bytes())
	var relErr error
	if pubErr == nil {
		relErr = l.client.Reload()
	}
	observeSince(l.mx.reloadSec, t1)
	stop()
	if pubErr != nil {
		return fmt.Errorf("loop: publishing %q: %w", l.cfg.Model, pubErr)
	}
	if relErr != nil {
		return fmt.Errorf("loop: reloading fleet: %w", relErr)
	}
	l.report.Recals++
	l.report.Reloads++
	inc(l.mx.recals)
	l.logf("loop: published %q (val MAE %.5f, sha256 %s) and reloaded the fleet",
		l.cfg.Model, result.ValMAE, l.report.ModelSHA256[:12])
	// Every detector's EWMA history was computed against the replaced
	// model; reset them (levels stay) so post-repair residuals are judged
	// fresh.
	for _, dev := range l.devices {
		if dev.det != nil {
			dev.det.Reset()
		}
		dev.handled = false
	}
	return nil
}

// topologySpec builds the retrain spec: the paper's Table-1 CNN, or a small
// dense net for fast CI loops.
func (l *Loop) topologySpec(inputLen int) (toolflow.TopologySpec, error) {
	r := l.cfg.Recal
	outputs := l.sim.NumCompounds()
	if r.Topology == "table1" {
		spec, err := toolflow.MSTable1Spec(inputLen, outputs, "relu", "linear", "softmax",
			r.Epochs, r.Batch, l.trainSeed)
		if err != nil {
			return toolflow.TopologySpec{}, err
		}
		spec.Workers = r.Workers
		spec.Checkpoint = r.Checkpoint
		return spec, nil
	}
	return toolflow.TopologySpec{
		Name: "loop-dense",
		Layers: []nn.LayerSpec{
			{Type: "dense", Out: r.Hidden},
			{Type: "activation", Activation: "relu"},
			{Type: "dense", Out: outputs},
			{Type: "softmax"},
		},
		Loss:       "mae",
		Optimizer:  "adam",
		LR:         0.001,
		Epochs:     r.Epochs,
		BatchSize:  r.Batch,
		Seed:       l.trainSeed,
		KeepBest:   true,
		InputShape: []int{inputLen},
		Workers:    r.Workers,
		Checkpoint: r.Checkpoint,
	}, nil
}

// startChurn launches the configured number of predict workers against the
// fleet and returns a stop function. Churn runs across the publish+reload
// window: its requests race the model swap, so stale-width 409s surface and
// the client's retry path proves they resolve.
//
// It does not return until every worker has completed one full round trip
// and has its second request in flight. The swap happens inside the PUT
// broadcast that follows, so without this handshake a fast publish can win
// the race outright and the stale-width path goes unexercised; with it, an
// old-width request is in flight while the swap lands. Whether it is still
// queued in the batcher when the swap lands depends on the backlog behind
// the model's forward passes: enough churn workers against a small
// per-flush batch cap keep old-width rows queued across the publish.
func (l *Loop) startChurn() (stop func()) {
	if l.cfg.Churn <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	flat := make([]float64, l.axis.N)
	for i := range flat {
		flat[i] = 1
	}
	// Each worker deposits a token immediately before its first two sends.
	// Between a worker's two tokens lies a complete round trip, so draining
	// 2×Churn tokens proves the pipeline is live end to end and every
	// worker's second request is already racing the swap.
	ready := make(chan struct{}, 2*l.cfg.Churn)
	for w := 0; w < l.cfg.Churn; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-done:
					return
				default:
				}
				if round < 2 {
					ready <- struct{}{}
				}
				// Errors feed the client's fault ledger; churn itself is
				// best-effort load.
				_ = l.client.Predict(l.cfg.Model, l.axis.Start, l.axis.Step, flat)
			}
		}()
	}
	for i := 0; i < 2*l.cfg.Churn; i++ {
		<-ready
	}
	return func() {
		close(done)
		wg.Wait()
	}
}

// finish folds the client's fault ledger and the tripping device's final
// residual into the report.
func (l *Loop) finish() Report {
	counts := l.client.Counts()
	l.report.Conflicts = counts.Conflicts
	l.report.ConflictRetries = counts.ConflictRetries
	l.report.Server5xx = counts.Server5xx
	add(l.mx.conflicts, uint64(counts.Conflicts))
	probe := 0
	if l.report.TripDevice >= 0 {
		probe = l.report.TripDevice
	}
	d := l.devices[probe]
	if d.det != nil {
		l.report.FinalResidual = d.det.EWMA()
		l.report.Threshold = d.threshold
		l.report.BelowThreshold = l.report.FinalResidual < l.report.Threshold
	}
	return l.report
}
