package experiments

import (
	"fmt"
	"io"

	"specml/internal/core"
	"specml/internal/dataset"
	"specml/internal/nmrsim"
	"specml/internal/rng"
	"specml/internal/toolflow"
)

// AblationResult compares the physically motivated augmentation against a
// naive linear combination of pure spectra.
type AblationResult struct {
	// AugmentedMSE is the measured-campaign MSE of the CNN trained with
	// shift/broadening augmentation (the paper's method).
	AugmentedMSE float64
	// NaiveMSE is the same CNN trained on plain linear combinations
	// (no shift, no broadening) — the baseline the paper argues against:
	// "the mixing of compounds in solution may shift single NMR peaks ...
	// a linear combination of experimental pure component spectra would
	// neglect this effect".
	NaiveMSE float64
}

// AblationAugmentation trains two identical NMR CNNs — one on the
// physically motivated IHM augmentation (random peak shifts and
// broadenings), one on naive undistorted linear combinations — and
// evaluates both on a measured reactor campaign whose spectra do shift
// and broaden. The augmented model must generalize better.
func AblationAugmentation(cfg Config, w io.Writer) (*AblationResult, error) {
	cnnTrain, _, epochs, _ := cfg.nmrSizes()
	// the NMR CNN is tiny, so even the quick scale can afford enough
	// training for the comparison to be meaningful
	if cfg.Scale == Quick {
		cnnTrain, epochs = 600, 8
	}

	p := core.NewNMRPipeline(core.NMRConfig{Seed: cfg.Seed, Workers: cfg.Workers})
	if err := p.FitComponents(); err != nil {
		return nil, err
	}

	reactor := nmrsim.NewReactor()
	doe := nmrsim.DoE(3, 3)
	perPlateau := 10
	if cfg.Scale == Quick {
		doe = nmrsim.DoE(2, 2)
		perPlateau = 5
	}
	plateaus, err := nmrsim.Campaign(reactor, p.LowField, doe, perPlateau, 0.002, cfg.Seed+50)
	if err != nil {
		return nil, err
	}
	spectra, labels := nmrsim.FlattenCampaign(plateaus)
	eval := dataset.New(len(spectra))
	for i := range spectra {
		eval.Append(spectra[i].Intensities, labels[i])
	}

	trainOne := func(d *dataset.Dataset, name string, seed uint64) (float64, error) {
		d.Shuffle(rng.New(seed + 1))
		spec := toolflow.NMRCNNSpec(nmrsim.Axis().N, nmrsim.NumComponents, epochs, 32, cfg.Seed)
		spec.Name = name
		spec.Workers = cfg.Workers
		runner := &toolflow.Runner{Verbose: cfg.Verbose}
		res, err := runner.Train(spec, d, eval)
		if err != nil {
			return 0, err
		}
		return res.Model.EvaluateMSE(eval.X, eval.Y), nil
	}

	// corpus A: the paper's physically motivated augmentation
	augCorpus, err := p.Augmenter().Generate(cnnTrain, cfg.Seed+60)
	if err != nil {
		return nil, err
	}

	// corpus B: naive linear combinations of ONE measured spectrum per pure
	// component. The frozen measurement noise is "inaccurately scaled" and
	// the frozen per-measurement peak shifts become systematic errors —
	// exactly the two failure modes the paper attributes to this approach.
	pures := make([][]float64, nmrsim.NumComponents)
	for j := range pures {
		s, err := p.LowField.MeasurePure(j)
		if err != nil {
			return nil, err
		}
		pures[j] = s.Intensities
	}
	src := rng.New(cfg.Seed + 61)
	aug := p.Augmenter()
	naiveCorpus := dataset.New(cnnTrain)
	n := len(pures[0])
	for i := 0; i < cnnTrain; i++ {
		conc := make([]float64, nmrsim.NumComponents)
		x := make([]float64, n)
		for j := range conc {
			conc[j] = src.Uniform(aug.ConcLo[j], aug.ConcHi[j])
			for k := 0; k < n; k++ {
				x[k] += conc[j] * pures[j][k]
			}
		}
		naiveCorpus.Append(x, conc)
	}

	out := &AblationResult{}
	if out.AugmentedMSE, err = trainOne(augCorpus, "cnn-augmented", cfg.Seed+60); err != nil {
		return nil, err
	}
	if out.NaiveMSE, err = trainOne(naiveCorpus, "cnn-naive-lincomb", cfg.Seed+60); err != nil {
		return nil, err
	}
	if w != nil {
		fmt.Fprintln(w, "Ablation — physically motivated augmentation vs naive linear combination")
		fmt.Fprintf(w, "  augmented (shift+broadening): measured MSE %.6f\n", out.AugmentedMSE)
		fmt.Fprintf(w, "  naive linear combination:     measured MSE %.6f\n", out.NaiveMSE)
		fmt.Fprintf(w, "  ratio naive/augmented: %.2f (the paper's method should be < 1x of this)\n",
			out.NaiveMSE/out.AugmentedMSE)
	}
	return out, nil
}
