package nmrsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"specml/internal/dataset"
	"specml/internal/obs"
)

// TestTrainingStreamMatchesGenerate pins the streaming equivalence: the
// stream's rows must be bit-identical to Generate's for equal (augmenter,
// n, seed) and any batch grouping — so FitSource on the stream trains the
// exact model a materialize-then-Fit run would.
func TestTrainingStreamMatchesGenerate(t *testing.T) {
	a := defaultAugmenter()
	d, err := a.Generate(10, 23)
	if err != nil {
		t.Fatal(err)
	}
	b := defaultAugmenter()
	s, err := b.TrainingStream(10, 23)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 10 {
		t.Fatalf("stream Len = %d, want 10", s.Len())
	}
	for _, batch := range []int{1, 4, 10} {
		n := s.Len()
		xw, yw := s.Widths()
		x := make([][]float64, n)
		y := make([][]float64, n)
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
		for i := range d.X {
			for j := range d.X[i] {
				if x[i][j] != d.X[i][j] {
					t.Fatalf("batch=%d: x[%d][%d] = %x, want %x (bitwise)",
						batch, i, j, x[i][j], d.X[i][j])
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
	a := defaultAugmenter()
	if _, err := a.TrainingStream(0, 1); err == nil {
		t.Fatal("zero samples accepted")
	}
	bad := defaultAugmenter()
	bad.IntensityScale = 0
	if _, err := bad.TrainingStream(4, 1); err == nil {
		t.Fatal("invalid augmenter accepted")
	}
}

func TestTrainingStreamMetrics(t *testing.T) {
	a := defaultAugmenter()
	a.Metrics = obs.NewRegistry()
	s, err := a.TrainingStream(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	x := [][]float64{make([]float64, a.Axis.N), make([]float64, a.Axis.N)}
	y := [][]float64{make([]float64, len(a.Components)), make([]float64, len(a.Components))}
	if err := s.Batch(0, []int{0, 1}, x, y); err != nil {
		t.Fatal(err)
	}
	got := a.Metrics.Counter("specml_corpus_samples_total", "", obs.L("source", "nmrsim")).Value()
	if got != 2 {
		t.Fatalf("corpus counter = %d, want 2", got)
	}
}

// TestTimeSeriesStreamMatchesGenerate pins the windowed streaming
// equivalence for the order-dependent LSTM corpus: every window rendered
// through the recorded-state replay must be bit-identical to
// GenerateTimeSeries for any batch grouping, and re-rendering a window
// (overlap, later epochs) must reproduce it exactly.
func TestTimeSeriesStreamMatchesGenerate(t *testing.T) {
	const nWindows, steps, maxRepeat, seed = 9, 4, 3, 77
	a := defaultAugmenter()
	d, err := a.GenerateTimeSeries(nWindows, steps, maxRepeat, seed)
	if err != nil {
		t.Fatal(err)
	}
	b := defaultAugmenter()
	s, err := b.TimeSeriesStream(nWindows, steps, maxRepeat, seed)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != nWindows {
		t.Fatalf("stream Len = %d, want %d", s.Len(), nWindows)
	}
	xw, yw := s.Widths()
	if xw != steps*b.Axis.N || yw != len(b.Components) {
		t.Fatalf("stream widths (%d, %d), want (%d, %d)", xw, yw, steps*b.Axis.N, len(b.Components))
	}
	for _, batch := range []int{1, 4, nWindows} {
		x := make([][]float64, nWindows)
		y := make([][]float64, nWindows)
		for i := range x {
			x[i] = make([]float64, xw)
			y[i] = make([]float64, yw)
		}
		for start := 0; start < nWindows; start += batch {
			end := start + batch
			if end > nWindows {
				end = nWindows
			}
			idx := make([]int, 0, end-start)
			for i := start; i < end; i++ {
				idx = append(idx, i)
			}
			if err := s.Batch(0, idx, x[start:end], y[start:end]); err != nil {
				t.Fatal(err)
			}
		}
		for i := range d.X {
			for j := range d.X[i] {
				if x[i][j] != d.X[i][j] {
					t.Fatalf("batch=%d: x[%d][%d] = %x, want %x (bitwise)",
						batch, i, j, x[i][j], d.X[i][j])
				}
			}
			for j := range d.Y[i] {
				if y[i][j] != d.Y[i][j] {
					t.Fatalf("batch=%d: y[%d][%d] differs bitwise", batch, i, j)
				}
			}
		}
	}
	// Reversed single-window replay: order independence of the step renders.
	x := make([]float64, xw)
	y := make([]float64, yw)
	for i := nWindows - 1; i >= 0; i-- {
		if err := s.Batch(1, []int{i}, [][]float64{x}, [][]float64{y}); err != nil {
			t.Fatal(err)
		}
		for j := range d.X[i] {
			if x[j] != d.X[i][j] {
				t.Fatalf("reversed: x[%d][%d] differs bitwise", i, j)
			}
		}
	}
}

// corpusDigest is the SHA-256 of the little-endian math.Float64bits of
// every X value, then every Y value, in row order, of all n rows of src.
func corpusDigest(t *testing.T, src dataset.Source, n int) string {
	t.Helper()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	d, err := dataset.Materialize(src, idx)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for _, rows := range [][][]float64{d.X, d.Y} {
		for _, row := range rows {
			for _, v := range row {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStreamDigests pins the bytes of small fixed-seed corpora from the
// two augmenter streams that NMR-CNN and LSTM training read, so a change
// to the template render, the jitter draws or the noise stream cannot
// pass unnoticed. The digests are amd64 values (see ROADMAP item 2):
// other architectures may fuse multiply-adds and differ in the last ulp.
func TestStreamDigests(t *testing.T) {
	const (
		wantTraining   = "ad4eae8b88fa1da635a49a094f94280f4ab75e628e0fe2ca6214deee17a1d510"
		wantTimeSeries = "315e0a1036d6fb230a541fd39d4813c0aee5a50b2c7175aa9aafaf399df6441d"
	)
	ts, err := defaultAugmenter().TrainingStream(8, 23)
	if err != nil {
		t.Fatal(err)
	}
	if got := corpusDigest(t, ts, 8); got != wantTraining {
		t.Errorf("training stream digest %s, want %s", got, wantTraining)
	}
	ws, err := defaultAugmenter().TimeSeriesStream(6, 5, 20, 23)
	if err != nil {
		t.Fatal(err)
	}
	if got := corpusDigest(t, ws, 6); got != wantTimeSeries {
		t.Errorf("time-series stream digest %s, want %s", got, wantTimeSeries)
	}
}
