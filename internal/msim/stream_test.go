package msim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"specml/internal/dataset"
	"specml/internal/obs"
)

// renderStream materializes every sample of a stream for comparison.
func renderStream(t *testing.T, s *dataset.Stream, batch int) (x, y [][]float64) {
	t.Helper()
	n := s.Len()
	xw, yw := s.Widths()
	x = make([][]float64, n)
	y = make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, xw)
		y[i] = make([]float64, yw)
	}
	for start := 0; start < n; start += batch {
		end := start + batch
		if end > n {
			end = n
		}
		idx := make([]int, 0, end-start)
		for i := start; i < end; i++ {
			idx = append(idx, i)
		}
		if err := s.Batch(0, idx, x[start:end], y[start:end]); err != nil {
			t.Fatal(err)
		}
	}
	return x, y
}

// TestTrainingStreamMatchesGenerate pins the streaming equivalence: the
// stream's rows must be bit-identical to the materialized generator's for
// equal (sim, model, axis, n, alpha, seed) and for any batch grouping, so
// FitSource on the stream trains the exact model a materialize-then-Fit
// run would.
func TestTrainingStreamMatchesGenerate(t *testing.T) {
	sim := taskSim(t)
	model := DefaultTrueModel()
	axis := DefaultAxis()
	d, err := GenerateTrainingWith(sim, model, axis, 12, 1, 7, 2, TrainingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s, names, err := NewTrainingStream(sim, model, axis, 12, 1, 7, TrainingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != sim.NumCompounds() {
		t.Fatalf("stream returned %d names, want %d", len(names), sim.NumCompounds())
	}
	for i, want := range d.Names {
		if names[i] != want {
			t.Fatalf("name %d = %q, want %q", i, names[i], want)
		}
	}
	for _, batch := range []int{1, 5, 12} {
		x, y := renderStream(t, s, batch)
		for i := range d.X {
			for j := range d.X[i] {
				if x[i][j] != d.X[i][j] {
					t.Fatalf("batch=%d: x[%d][%d] = %x, want %x (bitwise)", batch, i, j, x[i][j], d.X[i][j])
				}
			}
			for j := range d.Y[i] {
				if y[i][j] != d.Y[i][j] {
					t.Fatalf("batch=%d: y[%d][%d] differs bitwise", batch, i, j)
				}
			}
		}
	}
}

func TestTrainingStreamValidation(t *testing.T) {
	sim := taskSim(t)
	model := DefaultTrueModel()
	if _, _, err := NewTrainingStream(sim, model, DefaultAxis(), 0, 1, 7, TrainingOptions{}); err == nil {
		t.Fatal("zero samples accepted")
	}
	bad := DefaultTrueModel().Clone()
	bad.PeakFWHM0 = -1
	if _, _, err := NewTrainingStream(sim, bad, DefaultAxis(), 4, 1, 7, TrainingOptions{}); err == nil {
		t.Fatal("invalid instrument model accepted")
	}
}

func TestTrainingStreamMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s, _, err := NewTrainingStream(taskSim(t), DefaultTrueModel(), DefaultAxis(), 6, 1, 11,
		TrainingOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	renderStream(t, s, 3)
	got := reg.Counter("specml_corpus_samples_total", "", obs.L("source", "msim")).Value()
	if got != 6 {
		t.Fatalf("corpus counter = %d, want 6", got)
	}
}

// corpusDigest is the SHA-256 of the little-endian math.Float64bits of
// every x value, then every y value, in row order.
func corpusDigest(x, y [][]float64) string {
	h := sha256.New()
	var b [8]byte
	for _, rows := range [][][]float64{x, y} {
		for _, row := range rows {
			for _, v := range row {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainingStreamDigest pins the bytes of a small fixed-seed corpus
// from the stream that Table-1 training reads, so a change to the
// template sums, the noise draws or the preprocessing cannot pass
// unnoticed. The digest is the amd64 value (see ROADMAP item 2): other
// architectures may fuse multiply-adds and differ in the last ulp.
func TestTrainingStreamDigest(t *testing.T) {
	const want = "97fa0f9b111f6b7f4b80ac2769f834c2a9470dcb269cd2e76e657287107c243b"
	s, _, err := NewTrainingStream(taskSim(t), DefaultTrueModel(), DefaultAxis(), 16, 1, 7, TrainingOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x, y := renderStream(t, s, 16)
	if got := corpusDigest(x, y); got != want {
		t.Fatalf("corpus digest %s, want %s", got, want)
	}
}
