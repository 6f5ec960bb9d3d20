// Command nmrflow runs the NMR experiments: the Section III.B.3 comparison
// of the locally connected CNN, the LSTM time-series model and classical
// Indirect Hard Modelling, plus the data-augmentation ablation.
//
// Usage:
//
//	nmrflow                 # the full CNN / IHM / LSTM comparison
//	nmrflow -ablation       # physically motivated augmentation vs naive
//	nmrflow -scale quick -seed 9
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"specml/internal/experiments"
	"specml/internal/obs"
)

// logger carries the command's diagnostics; experiment tables stay on
// stdout. Replaced by the -log-format flag in main.
var logger = obs.NopLogger()

func main() {
	var (
		ablation  = flag.Bool("ablation", false, "run the augmentation ablation instead of the main comparison")
		hybrid    = flag.Bool("hybrid", false, "run the CNN+LSTM hybrid extension instead of the main comparison")
		quant     = flag.Bool("quant", false, "run the post-training quantization study instead of the main comparison")
		scale     = flag.String("scale", "laptop", "workload scale: quick | laptop | paper")
		seed      = flag.Uint64("seed", 1, "experiment seed")
		workers   = flag.Int("workers", 0, "generation/training worker count (0 = all cores); results are identical for any value")
		stream    = flag.Bool("stream", false, "render both training corpora on demand instead of materializing them (bit-identical networks, bounded memory)")
		ckpt      = flag.String("checkpoint", "", "with -stream: checkpoint path prefix; the CNN writes (and resumes from) <prefix>-nmr-cnn.ckpt and the LSTM <prefix>-nmr-lstm.ckpt every epoch")
		verbose   = flag.Bool("v", false, "per-epoch training logs")
		logFormat = flag.String("log-format", "text", "diagnostic log format: text or json")
	)
	flag.Parse()

	var lerr error
	if logger, lerr = obs.NewLogger(os.Stderr, *logFormat, slog.LevelInfo); lerr != nil {
		fmt.Fprintln(os.Stderr, "nmrflow:", lerr)
		os.Exit(2)
	}

	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	if *ckpt != "" && !*stream {
		fatal(fmt.Errorf("-checkpoint requires -stream"))
	}
	cfg := experiments.Config{Scale: sc, Seed: *seed, Workers: *workers,
		Stream: *stream, Checkpoint: *ckpt}
	if *verbose {
		cfg.Verbose = os.Stderr
	}
	if *ablation {
		if _, err := experiments.AblationAugmentation(cfg, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *hybrid {
		if _, err := experiments.HybridNMR(cfg, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *quant {
		if _, err := experiments.QuantizationStudy(cfg, os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if _, err := experiments.NMR(cfg, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	logger.Error("nmrflow failed", "err", err)
	os.Exit(1)
}
