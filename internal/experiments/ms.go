package experiments

import (
	"fmt"
	"io"

	"specml/internal/dataset"
	"specml/internal/msim"
	"specml/internal/nn"
	"specml/internal/rng"
	"specml/internal/spectrum"
	"specml/internal/toolflow"
)

// msWorld bundles the shared MS experiment setup: the measurement task,
// the virtual prototype and the gas-mixing rig.
type msWorld struct {
	sim   *msim.LineSimulator
	axis  spectrum.Axis
	vi    *msim.VirtualInstrument
	mixer *msim.Mixer
}

func newMSWorld(seed uint64) (*msWorld, error) {
	comps, err := msim.Compounds(msim.DefaultTask...)
	if err != nil {
		return nil, err
	}
	sim, err := msim.NewLineSimulator(comps)
	if err != nil {
		return nil, err
	}
	return &msWorld{
		sim:   sim,
		axis:  msim.DefaultAxis(),
		vi:    msim.NewVirtualInstrument(nil, seed+100),
		mixer: msim.NewMixer(0.005, seed+101),
	}, nil
}

// characterize runs Tools 2 with nRef reference samples per mixture.
func (w *msWorld) characterize(nRef int) (*msim.InstrumentModel, error) {
	refs, err := msim.CollectReferences(w.vi, w.sim, w.axis, msim.StandardMixtures(w.sim.NumCompounds()), nRef)
	if err != nil {
		return nil, err
	}
	ch := &msim.Characterizer{Task: w.sim.Compounds(), IgnitionMZ: 4}
	return ch.Estimate(refs)
}

// evalData measures the blend mixtures on a fresh prototype session — the
// "real measured data" of the studies.
func (w *msWorld) evalData(perMixture int) (*dataset.Dataset, error) {
	w.vi.NewSession()
	blends := msim.StandardMixtures(w.sim.NumCompounds())[w.sim.NumCompounds():]
	return msim.MeasureEvaluation(w.vi, w.mixer, w.sim, w.axis, blends, perMixture)
}

// trainVariant trains one Table-1 variant on a fresh simulated corpus,
// generating and training on `workers` goroutines (0 = all cores). With
// cfg.Stream the corpus is never materialized: training samples render on
// demand through the nn prefetch pipeline, with an index split replicating
// the materialized shuffle-then-split exactly, so the trained network is
// bit-identical either way.
func (w *msWorld) trainVariant(spec toolflow.TopologySpec, model *msim.InstrumentModel,
	trainSamples int, seed uint64, cfg Config) (*toolflow.Result, *dataset.Dataset, error) {
	workers, verbose := cfg.Workers, cfg.Verbose
	spec.Workers = workers
	runner := &toolflow.Runner{Verbose: verbose}
	if cfg.Stream {
		src, names, err := msim.NewTrainingStream(w.sim, model, w.axis, trainSamples, 1.0, seed, msim.TrainingOptions{})
		if err != nil {
			return nil, nil, err
		}
		trainIdx, valIdx, err := dataset.SplitIndices(trainSamples, 0.8, rng.New(seed+1))
		if err != nil {
			return nil, nil, err
		}
		train, err := dataset.Select(src, trainIdx)
		if err != nil {
			return nil, nil, err
		}
		// Only the (small) validation split materializes.
		val, err := dataset.Materialize(src, valIdx)
		if err != nil {
			return nil, nil, err
		}
		val.Names = names
		if cfg.Checkpoint != "" {
			spec.Checkpoint = fmt.Sprintf("%s-%s.ckpt", cfg.Checkpoint, spec.Name)
		}
		res, err := runner.TrainSource(spec, train, val)
		if err != nil {
			return nil, nil, err
		}
		return res, val, nil
	}
	d, err := msim.GenerateTraining(w.sim, model, w.axis, trainSamples, 1.0, seed, workers)
	if err != nil {
		return nil, nil, err
	}
	d.Shuffle(rng.New(seed + 1))
	train, val, err := d.Split(0.8)
	if err != nil {
		return nil, nil, err
	}
	res, err := runner.Train(spec, train, val)
	if err != nil {
		return nil, nil, err
	}
	return res, val, nil
}

// msSpec builds the training spec for a Table-1 variant with the
// experiment defaults (MAE loss, Adam 5e-3 — chosen so laptop-scale runs
// converge; the paper's TensorFlow defaults assumed a 100 000-spectrum
// corpus).
func (w *msWorld) msSpec(hidden, conv6, output string, epochs int, seed uint64) (toolflow.TopologySpec, error) {
	spec, err := toolflow.MSTable1Spec(w.axis.N, w.sim.NumCompounds(),
		hidden, conv6, output, epochs, 32, seed)
	if err != nil {
		return toolflow.TopologySpec{}, err
	}
	spec.LR = 0.005
	return spec, nil
}

// Fig4 reproduces the ideal-vs-simulated spectrum comparison: one blend
// mixture rendered as Tool 1's line spectrum and Tool 3's continuous
// spectrum, including the ignition-gas peak that has no line-spectrum
// counterpart. It returns the two spectra and writes a gnuplot-ready
// table.
func Fig4(cfg Config, w io.Writer) (*spectrum.LineSpectrum, *spectrum.Spectrum, error) {
	world, err := newMSWorld(cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	// equal-parts blend of all task compounds
	frac := make([]float64, world.sim.NumCompounds())
	for i := range frac {
		frac[i] = 1 / float64(len(frac))
	}
	ideal, err := world.sim.Mixture(frac)
	if err != nil {
		return nil, nil, err
	}
	model, err := world.characterize(25)
	if err != nil {
		return nil, nil, err
	}
	simulated, err := model.Measure(ideal, world.axis, rng.New(cfg.Seed+7))
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintln(w, "# Fig. 4 — ideal line spectrum (Tool 1) vs simulated continuous spectrum (Tool 3)")
	fmt.Fprintln(w, "# note the ignition-gas peak near m/z 4 with no line-spectrum counterpart")
	fmt.Fprintln(w, "# m/z  ideal_line  simulated")
	lineAt := map[int]float64{}
	for _, l := range ideal.Lines {
		lineAt[world.axis.NearestIndex(l.Position)] += l.Intensity
	}
	for i := 0; i < world.axis.N; i++ {
		fmt.Fprintf(w, "%6.2f  %10.6f  %10.6f\n", world.axis.Value(i), lineAt[i], simulated.Intensities[i])
	}
	return ideal, simulated, nil
}

// Table1 prints the architecture table of the paper's MS network and
// returns the model.
func Table1(cfg Config, w io.Writer) (*nn.Model, error) {
	world, err := newMSWorld(cfg.Seed)
	if err != nil {
		return nil, err
	}
	spec, err := world.msSpec("selu", "softmax", "softmax", 1, cfg.Seed)
	if err != nil {
		return nil, err
	}
	m, err := spec.Build()
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(w, "Table 1 — structure of the ANN used for mass spectrum analysis")
	fmt.Fprintf(w, "input: %d-point spectrum (m/z 1-100, step 0.5), output: %d substance fractions\n\n",
		world.axis.N, world.sim.NumCompounds())
	fmt.Fprint(w, m.Summary())
	return m, nil
}

// VariantResult is one row of the activation study.
type VariantResult struct {
	Name         string
	SimMAE       float64   // MAE on the simulated validation split
	MeasMAE      float64   // MAE on real (virtual-prototype) measurements
	PerSubstance []float64 // per-substance MAE on measured data
}

// Fig5 reproduces the activation-function study: eight Table-1 variants
// ({relu,selu} hidden x {linear,softmax} conv6 x {linear,softmax} output)
// trained on the same simulated corpus and evaluated on both simulated
// validation data and real measurements. The paper's first finding — on
// simulated data the variants differ little — reproduces at laptop scale;
// its second — softmax-output variants win on measured data — does not
// (the softmax heads converge more slowly at reduced corpus sizes and the
// virtual prototype's sim-to-real gap is milder than the physical
// prototype's); see EXPERIMENTS.md for the analysis.
func Fig5(cfg Config, w io.Writer) ([]VariantResult, error) {
	world, err := newMSWorld(cfg.Seed)
	if err != nil {
		return nil, err
	}
	trainSamples, epochs, nRef, nEval := cfg.msSizes()
	model, err := world.characterize(nRef)
	if err != nil {
		return nil, err
	}
	eval, err := world.evalData(nEval)
	if err != nil {
		return nil, err
	}
	var rows []VariantResult
	for _, hidden := range []string{"relu", "selu"} {
		for _, conv6 := range []string{"linear", "softmax"} {
			for _, output := range []string{"linear", "softmax"} {
				spec, err := world.msSpec(hidden, conv6, output, epochs, cfg.Seed)
				if err != nil {
					return nil, err
				}
				res, _, err := world.trainVariant(spec, model, trainSamples, cfg.Seed+11, cfg)
				if err != nil {
					return nil, err
				}
				measMAE, per := res.Model.EvaluateMAE(eval.X, eval.Y)
				rows = append(rows, VariantResult{
					Name:         res.Spec.Name,
					SimMAE:       res.ValMAE,
					MeasMAE:      measMAE,
					PerSubstance: per,
				})
				if w != nil {
					fmt.Fprintf(w, "%-26s  sim MAE %6.3f%%   measured MAE %6.3f%%\n",
						res.Spec.Name, 100*res.ValMAE, 100*measMAE)
				}
			}
		}
	}
	if w != nil {
		line(w, 64)
		fmt.Fprintln(w, "Fig. 5 per-substance measured MAE (%), blue bars of the paper:")
		names := world.sim.Names()
		fmt.Fprintf(w, "%-26s", "variant")
		for _, n := range names {
			fmt.Fprintf(w, " %6s", n)
		}
		fmt.Fprintln(w, "   mean")
		for _, r := range rows {
			fmt.Fprintf(w, "%-26s", r.Name)
			for _, v := range r.PerSubstance {
				fmt.Fprintf(w, " %6.2f", 100*v)
			}
			fmt.Fprintf(w, " %6.2f\n", 100*r.MeasMAE)
		}
	}
	return rows, nil
}

// Fig6 reproduces the simulator-sample-size study: the canonical Table-1
// network is trained from simulators parameterized with 10, 25, 50, 75,
// 100 and 150 reference samples per mixture (14 mixtures each) and
// evaluated on simulated and measured data. The paper's shape: simulated
// MAE is flat across the sweep, measured MAE is clearly worst at 10 and
// non-monotonic above 25.
func Fig6(cfg Config, w io.Writer) (map[int]VariantResult, error) {
	world, err := newMSWorld(cfg.Seed)
	if err != nil {
		return nil, err
	}
	trainSamples, epochs, _, nEval := cfg.msSizes()
	sampleSizes := []int{10, 25, 50, 75, 100, 150}
	if cfg.Scale == Quick {
		sampleSizes = []int{10, 25, 50}
	}
	eval, err := world.evalData(nEval)
	if err != nil {
		return nil, err
	}
	out := make(map[int]VariantResult, len(sampleSizes))
	for _, n := range sampleSizes {
		model, err := world.characterize(n)
		if err != nil {
			return nil, fmt.Errorf("experiments: characterizing with %d samples: %w", n, err)
		}
		spec, err := world.msSpec("selu", "softmax", "softmax", epochs, cfg.Seed)
		if err != nil {
			return nil, err
		}
		spec.Name = fmt.Sprintf("table1-n%d", n)
		res, _, err := world.trainVariant(spec, model, trainSamples, cfg.Seed+uint64(n), cfg)
		if err != nil {
			return nil, err
		}
		measMAE, per := res.Model.EvaluateMAE(eval.X, eval.Y)
		out[n] = VariantResult{Name: spec.Name, SimMAE: res.ValMAE, MeasMAE: measMAE, PerSubstance: per}
		if w != nil {
			fmt.Fprintf(w, "simulator samples/mixture %3d:  sim MAE %6.3f%%   measured MAE %6.3f%%\n",
				n, 100*res.ValMAE, 100*measMAE)
		}
	}
	return out, nil
}

// Fig7Result is the final-evaluation record.
type Fig7Result struct {
	SimMAE     float64
	MeasMAE    float64
	Names      []string
	SimPerSub  []float64
	MeasPerSub []float64
	Model      *nn.Model
}

// Fig7 reproduces the final MMS evaluation: the canonical network, trained
// from a simulator parameterized with a large reference budget (paper:
// ~200 samples per mixture, 14 mixtures), evaluated per compound on
// simulated data (gray bars) and on gas mixtures prepared with mass-flow
// controllers (black bars). The reproduced shape: simulated MAE well
// below measured MAE, with O2 among the worst channels and the H2O
// channel degraded by the humidity impurity the characterizer never saw.
func Fig7(cfg Config, w io.Writer) (*Fig7Result, error) {
	world, err := newMSWorld(cfg.Seed)
	if err != nil {
		return nil, err
	}
	trainSamples, epochs, nRef, nEval := cfg.msFinalSizes()
	model, err := world.characterize(nRef)
	if err != nil {
		return nil, err
	}
	spec, err := world.msSpec("selu", "softmax", "softmax", epochs, cfg.Seed)
	if err != nil {
		return nil, err
	}
	res, val, err := world.trainVariant(spec, model, trainSamples, cfg.Seed+17, cfg)
	if err != nil {
		return nil, err
	}
	simMAE, simPer := res.Model.EvaluateMAE(val.X, val.Y)
	eval, err := world.evalData(nEval)
	if err != nil {
		return nil, err
	}
	measMAE, measPer := res.Model.EvaluateMAE(eval.X, eval.Y)
	out := &Fig7Result{
		SimMAE: simMAE, MeasMAE: measMAE,
		Names: world.sim.Names(), SimPerSub: simPer, MeasPerSub: measPer,
		Model: res.Model,
	}
	if w != nil {
		fmt.Fprintln(w, "Fig. 7 — final network, per-compound MAE (%)")
		fmt.Fprintf(w, "%-8s %12s %12s\n", "compound", "simulated", "measured")
		line(w, 36)
		for i, n := range out.Names {
			fmt.Fprintf(w, "%-8s %11.2f%% %11.2f%%\n", n, 100*simPer[i], 100*measPer[i])
		}
		line(w, 36)
		fmt.Fprintf(w, "%-8s %11.2f%% %11.2f%%\n", "mean", 100*simMAE, 100*measMAE)
	}
	return out, nil
}
