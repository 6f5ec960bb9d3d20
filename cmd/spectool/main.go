// Command spectool generates and inspects spectra and provenance data:
//
//	spectool -fig4                      # ideal-vs-simulated spectrum table (Fig. 4)
//	spectool -compounds                 # list the built-in compound library
//	spectool -mixture "N2=0.7,O2=0.3"   # simulate one measured mixture spectrum
//	spectool -demo-store run.json       # run a mini pipeline, save its provenance
//	spectool -store run.json -lineage networks/000004
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"specml/internal/core"
	"specml/internal/dataset"
	"specml/internal/experiments"
	"specml/internal/msim"
	"specml/internal/nmrsim"
	"specml/internal/obs"
	"specml/internal/rng"
	"specml/internal/store"
	"specml/internal/toolflow"
)

// logger carries the command's diagnostics; data tables stay on stdout.
// Replaced by the -log-format flag in main.
var logger = obs.NopLogger()

func main() {
	var (
		fig4      = flag.Bool("fig4", false, "print the Fig. 4 ideal-vs-simulated table")
		compounds = flag.Bool("compounds", false, "list the compound library")
		mixture   = flag.String("mixture", "", "simulate a mixture, e.g. \"N2=0.7,O2=0.3\"")
		storePath = flag.String("store", "", "path of a saved provenance store to inspect")
		lineage   = flag.String("lineage", "", "with -store: print the lineage of a document ID")
		demoStore = flag.String("demo-store", "", "run a mini pipeline and save its provenance store to this path")
		streamN   = flag.Int("stream-demo", 0, "train a small MS network from an N-sample streamed corpus that is never materialized; prints throughput and peak heap")
		lstmN     = flag.Int("lstm-stream-demo", 0, "train the NMR LSTM from an N-window streamed rolling-window corpus that is never materialized; prints throughput and peak heap")
		maxHeapMB = flag.Int("max-heap-mb", 0, "with -stream-demo/-lstm-stream-demo: exit non-zero if peak heap exceeds this many MiB")
		ckpt      = flag.String("checkpoint", "", "with -stream-demo/-lstm-stream-demo: checkpoint path written every epoch and resumed from when it exists")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		workers   = flag.Int("workers", 0, "generation/training worker count (0 = all cores); results are identical for any value")
		logFormat = flag.String("log-format", "text", "diagnostic log format: text or json")
	)
	flag.Parse()

	var lerr error
	if logger, lerr = obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo); lerr != nil {
		fmt.Fprintln(os.Stderr, "spectool:", lerr)
		os.Exit(2)
	}

	ran := false
	if *fig4 {
		ran = true
		cfg := experiments.Config{Seed: *seed, Workers: *workers}
		if _, _, err := experiments.Fig4(cfg, os.Stdout); err != nil {
			fatal(err)
		}
	}
	if *compounds {
		ran = true
		fmt.Printf("%-8s %-10s %s\n", "name", "formula", "fragments (m/z: relative intensity)")
		for _, c := range msim.Library {
			fmt.Printf("%-8s %-10s", c.Name, c.Formula)
			for _, f := range c.Fragments {
				fmt.Printf(" %.0f:%.1f", f.Position, f.Intensity)
			}
			fmt.Println()
		}
	}
	if *mixture != "" {
		ran = true
		if err := simulateMixture(*mixture, *seed); err != nil {
			fatal(err)
		}
	}
	if *demoStore != "" {
		ran = true
		if err := buildDemoStore(*demoStore, *seed, *workers); err != nil {
			fatal(err)
		}
	}
	if *storePath != "" {
		ran = true
		if err := inspectStore(*storePath, *lineage); err != nil {
			fatal(err)
		}
	}
	if *streamN > 0 {
		ran = true
		if err := runStreamDemo(*streamN, *seed, *workers, *maxHeapMB, *ckpt); err != nil {
			fatal(err)
		}
	}
	if *lstmN > 0 {
		ran = true
		if err := runLSTMStreamDemo(*lstmN, *seed, *workers, *maxHeapMB, *ckpt); err != nil {
			fatal(err)
		}
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
}

// simulateMixture parses "Name=frac,..." and prints the simulated spectrum.
func simulateMixture(spec string, seed uint64) error {
	var names []string
	var fracs []float64
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("malformed mixture term %q (want Name=fraction)", part)
		}
		f, err := strconv.ParseFloat(kv[1], 64)
		if err != nil {
			return fmt.Errorf("fraction in %q: %w", part, err)
		}
		names = append(names, kv[0])
		fracs = append(fracs, f)
	}
	comps, err := msim.Compounds(names...)
	if err != nil {
		return err
	}
	sim, err := msim.NewLineSimulator(comps)
	if err != nil {
		return err
	}
	ideal, err := sim.Mixture(fracs)
	if err != nil {
		return err
	}
	model := msim.DefaultTrueModel()
	s, err := model.Measure(ideal, msim.DefaultAxis(), rng.New(seed))
	if err != nil {
		return err
	}
	fmt.Println("# m/z  intensity")
	for i := 0; i < s.Axis.N; i++ {
		fmt.Printf("%6.2f  %10.6f\n", s.Axis.Value(i), s.Intensities[i])
	}
	return nil
}

// inspectStore lists collections or prints a lineage.
func inspectStore(path, lineageID string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := store.Load(f)
	if err != nil {
		return err
	}
	if lineageID != "" {
		docs, err := st.Lineage(lineageID)
		if err != nil {
			return err
		}
		fmt.Printf("lineage of %s (%d ancestors):\n", lineageID, len(docs))
		for _, d := range docs {
			fmt.Printf("  %-24s %v\n", d.ID, d.Meta)
		}
		return nil
	}
	fmt.Printf("store %s: %d documents\n", path, st.Len())
	for _, c := range st.Collections() {
		docs := st.Find(c, nil)
		fmt.Printf("  %-16s %d documents\n", c, len(docs))
		for _, d := range docs {
			fmt.Printf("    %-24s %v\n", d.ID, d.Meta)
		}
	}
	return nil
}

// buildDemoStore runs characterization + training-data generation + a
// short training through a provenance-recording pipeline and saves the
// resulting document store.
func buildDemoStore(path string, seed uint64, workers int) error {
	st := store.New()
	pipe, err := core.NewMSPipeline(core.MSConfig{
		TrainSamples: 200,
		Epochs:       1,
		Seed:         seed,
		Workers:      workers,
		Store:        st,
	})
	if err != nil {
		return err
	}
	proto := msim.NewVirtualInstrument(nil, seed+5)
	refs, err := msim.CollectReferences(proto, pipe.LineSimulator(), msim.DefaultAxis(),
		msim.StandardMixtures(8), 5)
	if err != nil {
		return err
	}
	if err := pipe.Characterize(refs); err != nil {
		return err
	}
	if _, err := pipe.Train(nil); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = st.Save(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	logger.Info("provenance store written", "documents", st.Len(), "path", path,
		"inspect_with", "spectool -store "+path)
	for _, d := range st.Find("networks", nil) {
		logger.Info("network recorded", "trace_with",
			fmt.Sprintf("spectool -store %s -lineage %s", path, d.ID))
	}
	return nil
}

// runStreamDemo trains the Table-1 network from an n-sample streamed corpus
// that is never materialized: samples render on demand inside the nn
// prefetch pipeline, so peak heap stays bounded by the in-flight
// mini-batches and the 2% validation split regardless of n. A background
// sampler tracks peak heap; with a positive limit the demo fails when
// training memory exceeds it — the regression gate the CI small-heap job
// runs under GOMEMLIMIT.
func runStreamDemo(n int, seed uint64, workers, maxHeapMB int, checkpoint string) error {
	comps, err := msim.Compounds(msim.DefaultTask...)
	if err != nil {
		return err
	}
	sim, err := msim.NewLineSimulator(comps)
	if err != nil {
		return err
	}
	axis := msim.DefaultAxis()
	src, _, err := msim.NewTrainingStream(sim, msim.DefaultTrueModel(), axis, n, 1.0, seed,
		msim.TrainingOptions{})
	if err != nil {
		return err
	}
	trainIdx, valIdx, err := dataset.SplitIndices(n, 0.98, rng.New(seed+1))
	if err != nil {
		return err
	}
	train, err := dataset.Select(src, trainIdx)
	if err != nil {
		return err
	}
	val, err := dataset.Materialize(src, valIdx)
	if err != nil {
		return err
	}
	spec, err := toolflow.MSTable1Spec(axis.N, sim.NumCompounds(),
		"selu", "softmax", "softmax", 2, 32, seed)
	if err != nil {
		return err
	}
	spec.LR = 0.005
	spec.Workers = workers
	spec.Checkpoint = checkpoint

	stopWatch := watchPeakHeap()
	start := time.Now()
	runner := &toolflow.Runner{Verbose: os.Stderr}
	res, err := runner.TrainSource(spec, train, val)
	elapsed := time.Since(start)
	peakMiB := stopWatch()
	if err != nil {
		return err
	}
	rate := float64(len(trainIdx)*spec.Epochs) / elapsed.Seconds()
	fmt.Printf("stream-demo: %d samples streamed (never materialized), val MAE %.4f\n", n, res.ValMAE)
	fmt.Printf("stream-demo: %.0f samples/s over %d epochs, peak heap %.1f MiB\n",
		rate, spec.Epochs, peakMiB)
	if maxHeapMB > 0 && peakMiB > float64(maxHeapMB) {
		return fmt.Errorf("peak heap %.1f MiB exceeds the %d MiB limit", peakMiB, maxHeapMB)
	}
	return nil
}

// runLSTMStreamDemo trains the paper's Table-2 LSTM monitor network from an
// n-window streamed rolling-window corpus that is never materialized: the
// order-dependent plateau series is replayed through a windowed
// dataset.Source (nmrsim.TimeSeriesStream), so peak heap holds the recorded
// per-step rng states (~100 B/step), the in-flight mini-batches, and the 2%
// validation split — not the n x steps x 1700-point corpus. Same peak-heap
// regression gate as runStreamDemo; the CI small-heap job runs both under
// GOMEMLIMIT.
func runLSTMStreamDemo(n int, seed uint64, workers, maxHeapMB int, checkpoint string) error {
	const steps, maxRepeat = 5, 20
	p := core.NewNMRPipeline(core.NMRConfig{
		Windows:   n,
		Steps:     steps,
		MaxRepeat: maxRepeat,
		Seed:      seed,
		Workers:   workers,
	})
	if err := p.FitComponents(); err != nil {
		return err
	}
	src, err := p.Augmenter().TimeSeriesStream(n, steps, maxRepeat, seed+30)
	if err != nil {
		return err
	}
	trainIdx, valIdx, err := dataset.SplitIndices(n, 0.98, rng.New(seed+1))
	if err != nil {
		return err
	}
	train, err := dataset.Select(src, trainIdx)
	if err != nil {
		return err
	}
	val, err := dataset.Materialize(src, valIdx)
	if err != nil {
		return err
	}
	spec := toolflow.NMRLSTMSpec(steps, p.LowField.Axis.N, nmrsim.NumComponents, 2, 32, seed)
	spec.Workers = workers
	spec.Checkpoint = checkpoint

	stopWatch := watchPeakHeap()
	start := time.Now()
	runner := &toolflow.Runner{Verbose: os.Stderr}
	res, err := runner.TrainSource(spec, train, val)
	elapsed := time.Since(start)
	peakMiB := stopWatch()
	if err != nil {
		return err
	}
	rate := float64(len(trainIdx)*spec.Epochs) / elapsed.Seconds()
	fmt.Printf("lstm-stream-demo: %d windows streamed (never materialized), val MAE %.4f\n", n, res.ValMAE)
	fmt.Printf("lstm-stream-demo: %.0f windows/s over %d epochs, peak heap %.1f MiB\n",
		rate, spec.Epochs, peakMiB)
	if maxHeapMB > 0 && peakMiB > float64(maxHeapMB) {
		return fmt.Errorf("peak heap %.1f MiB exceeds the %d MiB limit", peakMiB, maxHeapMB)
	}
	return nil
}

// watchPeakHeap samples HeapAlloc on a background ticker. The returned stop
// function takes a final sample and reports the peak in MiB.
func watchPeakHeap() (stop func() float64) {
	var (
		mu   sync.Mutex
		peak uint64
		ms   runtime.MemStats
	)
	sample := func() {
		runtime.ReadMemStats(&ms)
		mu.Lock()
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		mu.Unlock()
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				sample()
			}
		}
	}()
	return func() float64 {
		close(quit)
		<-done
		sample()
		return float64(peak) / (1 << 20)
	}
}

func fatal(err error) {
	logger.Error("spectool failed", "err", err)
	os.Exit(1)
}
