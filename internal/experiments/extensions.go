package experiments

import (
	"fmt"
	"io"
	"time"

	"specml/internal/core"
	"specml/internal/dataset"
	"specml/internal/nmrsim"
	"specml/internal/nn"
	"specml/internal/platform"
	"specml/internal/spectrum"
	"specml/internal/toolflow"
)

// SectionIV reproduces the discussion section's embedded-alternatives
// comparison: the Table-1 workload on the ARM baseline, the FGPU soft GPU
// ("average 4.2x speedup ... over an embedded ARM core"), the VCGRA
// overlay and the specialized soft GPU ("further specializing increases
// the speedup numbers by 100x").
func SectionIV(cfg Config, w io.Writer) ([]Table2Row, error) {
	m, err := Table1(cfg, io.Discard)
	if err != nil {
		return nil, err
	}
	ops, err := platform.CountModel(m)
	if err != nil {
		return nil, err
	}
	const samples = 21600
	profiles := platform.SectionIVProfiles()
	var rows []Table2Row
	var baseline platform.Estimate
	if w != nil {
		fmt.Fprintf(w, "Section IV — FPGA-based alternatives, %d inferences of the Table-1 network\n", samples)
		fmt.Fprintf(w, "%-18s %-6s %12s %10s %12s %12s\n", "platform", "unit", "time/s", "power/W", "energy/J", "vs ARM")
		line(w, 76)
	}
	for i, p := range profiles {
		est, err := p.Run(ops, samples)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			baseline = est
		}
		rows = append(rows, Table2Row{Platform: p.Name, Device: p.Device, Estimate: est})
		if w != nil {
			fmt.Fprintf(w, "%-18s %-6s %12.2f %10.2f %12.2f %11.1fx\n",
				p.Name, p.Device, est.TimeSeconds, est.PowerWatts, est.EnergyJoules,
				baseline.TimeSeconds/est.TimeSeconds)
		}
	}
	return rows, nil
}

// QuantizationRow is one bit-width point of the quantization study.
type QuantizationRow struct {
	Bits        int
	MeasuredMSE float64
	ParamBytes  int64
	MaxRelError float64
}

// QuantizationStudy trains the NMR CNN once and evaluates post-training
// fixed-point quantization at decreasing bit widths — the accuracy/cost
// trade-off behind Section IV's number-format-tailored processing
// elements. Bits=0 rows denote the float64 reference.
func QuantizationStudy(cfg Config, w io.Writer) ([]QuantizationRow, error) {
	cnnTrain, _, epochs, _ := cfg.nmrSizes()
	if cfg.Scale == Quick {
		cnnTrain, epochs = 600, 8
	}
	p := core.NewNMRPipeline(core.NMRConfig{
		TrainSamples: cnnTrain,
		Epochs:       epochs,
		BatchSize:    32,
		Seed:         cfg.Seed,
		Workers:      cfg.Workers,
	})
	if err := p.FitComponents(); err != nil {
		return nil, err
	}
	reactor := nmrsim.NewReactor()
	plateaus, err := nmrsim.Campaign(reactor, p.LowField, nmrsim.DoE(3, 3), 10, 0.002, cfg.Seed+80)
	if err != nil {
		return nil, err
	}
	spectra, labels := nmrsim.FlattenCampaign(plateaus)
	val := datasetFrom(spectra, labels)
	res, err := p.TrainCNN(val, cfg.Verbose)
	if err != nil {
		return nil, err
	}
	rows := []QuantizationRow{{
		Bits:        0,
		MeasuredMSE: res.Model.EvaluateMSE(val.X, val.Y),
		ParamBytes:  int64(res.Model.NumParams()) * 8,
	}}
	for _, bits := range []int{16, 12, 8, 6, 4, 3} {
		q, err := nn.QuantizeParams(res.Model, bits)
		if err != nil {
			return nil, err
		}
		maxRel, _, err := nn.QuantizationError(res.Model, q)
		if err != nil {
			return nil, err
		}
		rows = append(rows, QuantizationRow{
			Bits:        bits,
			MeasuredMSE: q.EvaluateMSE(val.X, val.Y),
			ParamBytes:  nn.QuantizedBytes(res.Model, bits),
			MaxRelError: maxRel,
		})
	}
	if w != nil {
		fmt.Fprintln(w, "Extension — post-training quantization of the NMR CNN")
		fmt.Fprintf(w, "%-8s %14s %12s %14s\n", "bits", "measured MSE", "param bytes", "max rel err")
		line(w, 52)
		for _, r := range rows {
			name := fmt.Sprintf("%d", r.Bits)
			if r.Bits == 0 {
				name = "float64"
			}
			fmt.Fprintf(w, "%-8s %14.6f %12d %14.5f\n", name, r.MeasuredMSE, r.ParamBytes, r.MaxRelError)
		}
	}
	return rows, nil
}

// datasetFrom builds a dataset view over campaign spectra.
func datasetFrom(spectra []*spectrum.Spectrum, labels [][]float64) *dataset.Dataset {
	d := dataset.New(len(spectra))
	for i := range spectra {
		d.Append(spectra[i].Intensities, labels[i])
	}
	return d
}

// HybridResult compares the plain LSTM against the paper's proposed
// CNN+LSTM hybrid ("combining a locally connected convolutional layer as
// feature selector and input for an LSTM layer").
type HybridResult struct {
	LSTMParams, HybridParams   int
	LSTMMSE, HybridMSE         float64
	LSTMLatency, HybridLatency time.Duration
}

// HybridNMR trains the plain LSTM and the hybrid on identical synthetic
// time-series corpora and evaluates both on a measured reactor campaign.
func HybridNMR(cfg Config, w io.Writer) (*HybridResult, error) {
	_, lstmWindows, epochs, _ := cfg.nmrSizes()
	const steps = 5

	p := core.NewNMRPipeline(core.NMRConfig{Seed: cfg.Seed, Workers: cfg.Workers})
	if err := p.FitComponents(); err != nil {
		return nil, err
	}
	corpus, err := p.Augmenter().GenerateTimeSeries(lstmWindows, steps, 20, cfg.Seed+70)
	if err != nil {
		return nil, err
	}

	reactor := nmrsim.NewReactor()
	doe := nmrsim.DoE(3, 3)
	perPlateau := 10
	if cfg.Scale == Quick {
		doe = nmrsim.DoE(2, 2)
		perPlateau = 6
	}
	plateaus, err := nmrsim.Campaign(reactor, p.LowField, doe, perPlateau, 0.002, cfg.Seed+71)
	if err != nil {
		return nil, err
	}
	spectra, labels := nmrsim.FlattenCampaign(plateaus)
	val, err := nmrsim.WindowCampaign(spectra, labels, steps)
	if err != nil {
		return nil, err
	}

	axisLen := nmrsim.Axis().N
	runner := &toolflow.Runner{Verbose: cfg.Verbose}
	out := &HybridResult{}

	lstmSpec := toolflow.NMRLSTMSpec(steps, axisLen, nmrsim.NumComponents, epochs, 32, cfg.Seed)
	lstmSpec.Workers = cfg.Workers
	lstmRes, err := runner.Train(lstmSpec, corpus, val)
	if err != nil {
		return nil, err
	}
	out.LSTMParams = lstmRes.Model.NumParams()
	out.LSTMMSE = lstmRes.Model.EvaluateMSE(val.X, val.Y)

	hybridSpec := toolflow.NMRHybridSpec(steps, axisLen, nmrsim.NumComponents, epochs, 32, cfg.Seed)
	hybridSpec.Workers = cfg.Workers
	hybridRes, err := runner.Train(hybridSpec, corpus, val)
	if err != nil {
		return nil, err
	}
	out.HybridParams = hybridRes.Model.NumParams()
	out.HybridMSE = hybridRes.Model.EvaluateMSE(val.X, val.Y)

	// latency per window
	for _, t := range []struct {
		res *toolflow.Result
		dst *time.Duration
	}{{lstmRes, &out.LSTMLatency}, {hybridRes, &out.HybridLatency}} {
		start := time.Now()
		for i := range val.X {
			t.res.Model.Predict(val.X[i])
		}
		*t.dst = time.Since(start) / time.Duration(len(val.X))
	}

	if w != nil {
		fmt.Fprintln(w, "Extension — plain LSTM vs CNN+LSTM hybrid (paper's future work)")
		fmt.Fprintf(w, "%-22s %10s %14s %16s\n", "model", "params", "measured MSE", "latency/window")
		line(w, 68)
		fmt.Fprintf(w, "%-22s %10d %14.6f %16v\n", "LSTM(32)", out.LSTMParams, out.LSTMMSE, out.LSTMLatency)
		fmt.Fprintf(w, "%-22s %10d %14.6f %16v\n", "LC-CNN -> LSTM(32)", out.HybridParams, out.HybridMSE, out.HybridLatency)
		line(w, 68)
		fmt.Fprintf(w, "hybrid/LSTM MSE ratio: %.2f, latency ratio: %.2f\n",
			out.HybridMSE/out.LSTMMSE, float64(out.HybridLatency)/float64(out.LSTMLatency))
	}
	return out, nil
}
