// Benchmark harness regenerating every table and figure of the paper's
// evaluation. Each benchmark prints/records the same quantities the paper
// reports; custom metrics expose the headline numbers (MAE/MSE in percent,
// latencies, speedups) in the benchmark output.
//
// Scale: benchmarks default to the "quick" workload so a full -bench=.
// sweep stays in the minutes range. Set SPECML_BENCH_SCALE=laptop (or
// paper) to rerun at larger scale; cmd/msflow and cmd/nmrflow run the
// laptop scale by default and print the full tables.
package specml

import (
	"io"
	"os"
	"strconv"
	"testing"

	"specml/internal/experiments"
	"specml/internal/ihm"
	"specml/internal/msim"
	"specml/internal/nmrsim"
	"specml/internal/rng"
	"specml/internal/toolflow"
)

func benchConfig() experiments.Config {
	scale := experiments.Quick
	if s := os.Getenv("SPECML_BENCH_SCALE"); s != "" {
		if parsed, err := experiments.ParseScale(s); err == nil {
			scale = parsed
		}
	}
	return experiments.Config{Scale: scale, Seed: 1, Workers: benchWorkers()}
}

// benchWorkers reads SPECML_BENCH_WORKERS (default 0 = all cores). All
// results are bit-identical for any value, so the knob only moves the
// clock, never the reported metrics.
func benchWorkers() int {
	if s := os.Getenv("SPECML_BENCH_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil {
			return n
		}
	}
	return 0
}

// BenchmarkFig4SpectrumSimulation measures Tool 3: rendering one non-ideal
// continuous spectrum from an ideal line spectrum (the core of the
// "simulated measurement series ... generated in minutes" claim).
func BenchmarkFig4SpectrumSimulation(b *testing.B) {
	comps, err := msim.Compounds(msim.DefaultTask...)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := msim.NewLineSimulator(comps)
	if err != nil {
		b.Fatal(err)
	}
	frac := make([]float64, sim.NumCompounds())
	for i := range frac {
		frac[i] = 1 / float64(len(frac))
	}
	ideal, err := sim.Mixture(frac)
	if err != nil {
		b.Fatal(err)
	}
	model := msim.DefaultTrueModel()
	axis := msim.DefaultAxis()
	src := rng.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := model.Measure(ideal, axis, src); err != nil {
			b.Fatal(err)
		}
	}
}

// fig4CorpusBench generates one Fig.4-style simulated training corpus with
// the given worker count and reports throughput in spectra per second.
func fig4CorpusBench(b *testing.B, workers int) {
	comps, err := msim.Compounds(msim.DefaultTask...)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := msim.NewLineSimulator(comps)
	if err != nil {
		b.Fatal(err)
	}
	model := msim.DefaultTrueModel()
	axis := msim.DefaultAxis()
	n := 250
	if s := os.Getenv("SPECML_BENCH_SCALE"); s == "laptop" {
		n = 1500
	} else if s == "paper" {
		n = 100000
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := msim.GenerateTraining(sim, model, axis, n, 1.0, 1, workers); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "spectra/s")
}

// BenchmarkFig4CorpusGenerationSequential is the single-worker baseline of
// the corpus-generation speedup study (BENCH_parallel.json).
func BenchmarkFig4CorpusGenerationSequential(b *testing.B) { fig4CorpusBench(b, 1) }

// BenchmarkFig4CorpusGenerationParallel generates the same bit-identical
// corpus on all cores.
func BenchmarkFig4CorpusGenerationParallel(b *testing.B) { fig4CorpusBench(b, benchWorkers()) }

// table2TrainBench trains the Table-1 CNN on a fixed simulated corpus with
// the given worker count — the training half of the speedup study.
func table2TrainBench(b *testing.B, workers int) {
	comps, err := msim.Compounds(msim.DefaultTask...)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := msim.NewLineSimulator(comps)
	if err != nil {
		b.Fatal(err)
	}
	d, err := msim.GenerateTraining(sim, msim.DefaultTrueModel(), msim.DefaultAxis(), 250, 1.0, 1, workers)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := toolflow.MSTable1Spec(msim.DefaultAxis().N, sim.NumCompounds(),
		"selu", "softmax", "softmax", 2, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	spec.LR = 0.005
	spec.Workers = workers
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runner := &toolflow.Runner{}
		if _, err := runner.Train(spec, d, d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(d.Len()*2)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// BenchmarkTable2TrainingSequential is the single-worker training baseline.
func BenchmarkTable2TrainingSequential(b *testing.B) { table2TrainBench(b, 1) }

// BenchmarkTable2TrainingParallel trains the same bit-identical network on
// all cores.
func BenchmarkTable2TrainingParallel(b *testing.B) { table2TrainBench(b, benchWorkers()) }

// BenchmarkTable1Inference measures one forward pass of the Table-1 CNN on
// the host (the per-sample cost underlying Table 2).
func BenchmarkTable1Inference(b *testing.B) {
	spec, err := toolflow.MSTable1Spec(msim.DefaultAxis().N, 8, "selu", "softmax", "softmax", 1, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	m, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, m.InputLen())
	for i := range x {
		x[i] = 1 / float64(len(x))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

// BenchmarkFig5ActivationStudy regenerates the activation study and
// reports the best softmax-head and best linear-head measured MAE.
func BenchmarkFig5ActivationStudy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig5(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		bestSoftmax, bestLinear := 1.0, 1.0
		for _, r := range rows {
			isSoftmaxOut := r.Name[len(r.Name)-4:] == "sftm"
			if isSoftmaxOut && r.MeasMAE < bestSoftmax {
				bestSoftmax = r.MeasMAE
			}
			if !isSoftmaxOut && r.MeasMAE < bestLinear {
				bestLinear = r.MeasMAE
			}
		}
		b.ReportMetric(100*bestSoftmax, "bestSoftmaxMeasMAE%")
		b.ReportMetric(100*bestLinear, "bestLinearMeasMAE%")
	}
}

// BenchmarkFig6SampleSizeStudy regenerates the sample-size sweep and
// reports the measured MAE at the smallest and largest budgets.
func BenchmarkFig6SampleSizeStudy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if r, ok := rows[10]; ok {
			b.ReportMetric(100*r.MeasMAE, "measMAE%@10")
		}
		if r, ok := rows[25]; ok {
			b.ReportMetric(100*r.MeasMAE, "measMAE%@25")
		}
	}
}

// BenchmarkFig7FinalEvaluation regenerates the final evaluation and
// reports the simulated-vs-measured MAE pair (paper: 0.27% vs 1.5%).
func BenchmarkFig7FinalEvaluation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig7(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*res.SimMAE, "simMAE%")
		b.ReportMetric(100*res.MeasMAE, "measMAE%")
	}
}

// BenchmarkTable2PlatformStudy regenerates Table 2 and reports the Nano
// and TX2 GPU speedups (paper: 4.8x and 7.1x).
func BenchmarkTable2PlatformStudy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Estimate.TimeSeconds/rows[1].Estimate.TimeSeconds, "nanoSpeedupX")
		b.ReportMetric(rows[2].Estimate.TimeSeconds/rows[3].Estimate.TimeSeconds, "tx2SpeedupX")
	}
}

// BenchmarkNMRCNNvsIHM regenerates the Section III.B.3 comparison and
// reports the CNN/IHM MSE ratio (paper: ~0.95) and the IHM-over-CNN
// speedup (paper: >1000x).
func BenchmarkNMRCNNvsIHM(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.NMR(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CNNMSE/res.IHMMSE, "cnnOverIhmMSE")
		b.ReportMetric(res.Speedup, "ihmOverCnnSpeedupX")
		b.ReportMetric(res.LSTMMSE/res.CNNMSE, "lstmOverCnnMSE")
		b.ReportMetric(res.LSTMPlateauStd/res.CNNPlateauStd, "lstmPlateauStdRatio")
	}
}

// BenchmarkNMRCNNInference measures a single forward pass of the
// 10532-parameter NMR CNN (paper: 0.9 ms on an i7-8565U with TensorFlow).
func BenchmarkNMRCNNInference(b *testing.B) {
	spec := toolflow.NMRCNNSpec(nmrsim.Axis().N, nmrsim.NumComponents, 1, 32, 1)
	m, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, m.InputLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

// BenchmarkNMRLSTMInference measures a single forward pass of the
// 221956-parameter LSTM over 5 timesteps (paper: 1.05 ms).
func BenchmarkNMRLSTMInference(b *testing.B) {
	spec := toolflow.NMRLSTMSpec(5, nmrsim.Axis().N, nmrsim.NumComponents, 1, 32, 1)
	m, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, m.InputLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

// BenchmarkIHMAnalysis measures one classical IHM mixture analysis — the
// baseline latency the paper's ">1000 times faster" claim compares
// against.
func BenchmarkIHMAnalysis(b *testing.B) {
	ins := nmrsim.NewLowField(3)
	comps := nmrsim.TrueComponents()
	an, err := ihm.NewMixtureAnalyzer(comps, ihm.AnalyzerOptions{MaxShift: 0.03, WidthRange: 0.4})
	if err != nil {
		b.Fatal(err)
	}
	s, err := ins.Measure([]float64{0.3, 0.2, 0.3, 0.2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := an.Analyze(s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSectionIVPlatforms regenerates the Section-IV FPGA-alternative
// estimates and reports the soft-GPU and specialized speedups over the ARM
// baseline (paper: 4.2x and ~420x).
func BenchmarkSectionIVPlatforms(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.SectionIV(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		arm := rows[0].Estimate.TimeSeconds
		b.ReportMetric(arm/rows[1].Estimate.TimeSeconds, "fgpuSpeedupX")
		b.ReportMetric(arm/rows[3].Estimate.TimeSeconds, "specializedSpeedupX")
	}
}

// BenchmarkHybridNMR regenerates the future-work CNN+LSTM hybrid study and
// reports the hybrid/LSTM MSE ratio.
func BenchmarkHybridNMR(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.HybridNMR(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.HybridMSE/res.LSTMMSE, "hybridOverLstmMSE")
		b.ReportMetric(float64(res.HybridLatency)/float64(res.LSTMLatency), "latencyRatio")
	}
}

// BenchmarkQuantizationStudy regenerates the post-training quantization
// study and reports the 8-bit/float MSE ratio (near 1 means int8 deploys
// safely on number-format-tailored overlays).
func BenchmarkQuantizationStudy(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.QuantizationStudy(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		baseline := rows[0].MeasuredMSE
		for _, r := range rows {
			if r.Bits == 8 {
				b.ReportMetric(r.MeasuredMSE/baseline, "int8OverFloatMSE")
			}
			if r.Bits == 4 {
				b.ReportMetric(r.MeasuredMSE/baseline, "int4OverFloatMSE")
			}
		}
	}
}

// BenchmarkAblationAugmentation regenerates the augmentation ablation and
// reports the naive/augmented MSE ratio (>1 means the paper's method wins).
func BenchmarkAblationAugmentation(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, err := experiments.AblationAugmentation(cfg, io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.NaiveMSE/res.AugmentedMSE, "naiveOverAugMSE")
	}
}

// BenchmarkFig7AugmentationCached renders Fig. 7-scale augmented corpora
// (the paper's central data-augmentation workload: 1700-point spectra,
// four components, shift and width jitter plus noise) on a single core,
// reusing one dataset so generation runs at its zero-alloc steady state;
// throughput is reported in spectra per second.
func BenchmarkFig7AugmentationCached(b *testing.B) {
	a := &nmrsim.Augmenter{
		Axis:           nmrsim.Axis(),
		Components:     nmrsim.TrueComponents(),
		ConcLo:         []float64{0, 0, 0, 0},
		ConcHi:         []float64{0.6, 0.6, 0.6, 0.5},
		ShiftJitter:    0.008,
		WidthJitter:    0.05,
		NoiseSigma:     0.01,
		IntensityScale: 0.05,
		Workers:        1, // single core: throughput comes from the engine, not parallelism
	}
	const n = 100
	d, err := a.Generate(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.GenerateInto(d, n, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "spectra/s")
}

// BenchmarkFig4CorpusRenderCached is the MS half of the render study: one
// Fig. 4 simulated training corpus on a single core, composed from cached
// instrument-rendered compound templates.
func BenchmarkFig4CorpusRenderCached(b *testing.B) {
	comps, err := msim.Compounds(msim.DefaultTask...)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := msim.NewLineSimulator(comps)
	if err != nil {
		b.Fatal(err)
	}
	model := msim.DefaultTrueModel()
	axis := msim.DefaultAxis()
	const n = 250
	d, err := msim.GenerateTraining(sim, model, axis, n, 1.0, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := msim.GenerateTrainingInto(d, sim, model, axis, n, 1.0, uint64(i), 1, msim.TrainingOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "spectra/s")
}
