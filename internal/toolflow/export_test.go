package toolflow

import (
	"bytes"
	"strings"
	"testing"
)

func TestWriteResultsCSV(t *testing.T) {
	r := &Runner{}
	res1, err := r.Train(tinySpec(2), tinyData(30, 1), tinyData(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	spec2 := tinySpec(3)
	spec2.Name = "tiny-b"
	res2, err := r.Train(spec2, tinyData(30, 3), tinyData(10, 4))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteResultsCSV([]*Result{res1, res2}, []string{"A", "B"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d CSV lines, want 3", len(lines))
	}
	if !strings.Contains(lines[0], "mae_A") || !strings.Contains(lines[0], "valMAE") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "tiny,") || !strings.HasPrefix(lines[2], "tiny-b,") {
		t.Fatalf("rows wrong: %q %q", lines[1], lines[2])
	}
}

func TestWriteResultsCSVEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResultsCSV(nil, nil, &buf); err == nil {
		t.Fatal("empty results must error")
	}
}

func TestNMRHybridSpecBuilds(t *testing.T) {
	spec := NMRHybridSpec(5, 1700, 4, 1, 32, 1)
	m, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	// locally connected feature selector: 188*4*10 = 7520 + 752 bias
	// LSTM over 752 features: 4*32*(752+32+1) = 100480; dense 32*4+4
	want := 188*4*(9+1) + 4*32*(752+32+1) + 32*4 + 4
	if got := m.NumParams(); got != want {
		t.Fatalf("hybrid params = %d, want %d", got, want)
	}
	out := m.Predict(make([]float64, 5*1700))
	if len(out) != 4 {
		t.Fatalf("hybrid output len %d", len(out))
	}
}
