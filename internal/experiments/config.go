// Package experiments reproduces every table and figure of the paper's
// evaluation: the spectrum-simulation comparison (Fig. 4), the Table-1
// architecture, the activation-function study (Fig. 5), the
// simulator-sample-size study (Fig. 6), the final per-compound evaluation
// (Fig. 7), the embedded-platform study (Table 2) and the NMR
// CNN-vs-IHM-vs-LSTM comparison of Section III.B.3, plus the augmentation
// ablation motivated by Section III.B.1.
//
// Each experiment is a function taking a Config and an io.Writer; the
// command-line tools and the benchmark harness share these entry points.
// Config.Scale selects laptop-friendly sizes (the default) or the paper's
// full corpus sizes.
package experiments

import (
	"fmt"
	"io"
	"strings"
)

// Scale selects the experiment workload size.
type Scale int

const (
	// Quick runs in seconds per experiment; orderings are noisy. Used by
	// the test suite.
	Quick Scale = iota
	// Laptop runs each experiment in a couple of minutes single-threaded
	// and preserves the paper's qualitative shape. The default.
	Laptop
	// Paper uses the published corpus sizes (100 000 MS spectra, 300 000
	// NMR spectra). Hours of compute; provided for completeness.
	Paper
)

// ParseScale converts a flag string.
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "quick":
		return Quick, nil
	case "laptop", "":
		return Laptop, nil
	case "paper":
		return Paper, nil
	default:
		return Laptop, fmt.Errorf("experiments: unknown scale %q (quick|laptop|paper)", s)
	}
}

// Config parameterizes one experiment run.
type Config struct {
	Scale Scale
	Seed  uint64
	// Workers is the worker count for data generation, training and batch
	// inference (0 = all cores). Results are bit-identical for any value.
	Workers int
	// Stream renders training corpora on demand through the nn prefetch
	// pipeline instead of materializing them first. Trained networks are
	// bit-identical to the materialized path; peak memory holds only the
	// in-flight mini-batches and the (small) validation split.
	Stream bool
	// Checkpoint, when non-empty, is a checkpoint path prefix for streamed
	// training: each trained network writes (and resumes from)
	// "<prefix>-<specname>.ckpt" after every epoch. Requires Stream.
	Checkpoint string
	// Verbose, when non-nil, receives per-epoch training logs.
	Verbose io.Writer
}

// msSizes returns (trainSamples, epochs, refSamplesPerMixture,
// evalSpectraPerMixture) for the MS experiments.
func (c Config) msSizes() (int, int, int, int) {
	switch c.Scale {
	case Quick:
		return 250, 3, 8, 4
	case Paper:
		return 100000, 60, 200, 100
	default:
		return 1500, 20, 25, 15
	}
}

// msFinalSizes returns the larger budget of the final Fig. 7 network.
func (c Config) msFinalSizes() (int, int, int, int) {
	switch c.Scale {
	case Quick:
		return 300, 4, 10, 5
	case Paper:
		return 100000, 80, 200, 100
	default:
		return 1500, 30, 100, 20
	}
}

// nmrSizes returns (cnnTrainSamples, lstmWindows, epochs, ihmEvalSpectra).
func (c Config) nmrSizes() (int, int, int, int) {
	switch c.Scale {
	case Quick:
		// the CNN is cheap enough to train decently even at quick scale;
		// the LSTM budget is the binding constraint
		return 800, 40, 8, 4
	case Paper:
		return 300000, 20000, 50, 300
	default:
		// the locally connected CNN is tiny, so the laptop scale can afford
		// a large corpus; the LSTM dominates the budget
		return 8000, 700, 24, 24
	}
}

// cnnCheckpoint derives the NMR CNN checkpoint path from the configured
// prefix (empty when checkpointing is off).
func cnnCheckpoint(c Config) string {
	if c.Checkpoint == "" {
		return ""
	}
	return c.Checkpoint + "-nmr-cnn.ckpt"
}

// lstmCheckpoint derives the NMR LSTM checkpoint path from the configured
// prefix (empty when checkpointing is off). Distinct from cnnCheckpoint —
// the two models' checkpoints are not interchangeable.
func lstmCheckpoint(c Config) string {
	if c.Checkpoint == "" {
		return ""
	}
	return c.Checkpoint + "-nmr-lstm.ckpt"
}

// line prints a horizontal rule.
func line(w io.Writer, n int) {
	fmt.Fprintln(w, strings.Repeat("-", n))
}
