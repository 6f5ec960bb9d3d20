package toolflow

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"specml/internal/dataset"
)

// TestTrainSourceMatchesTrain pins the runner-level streaming guarantee:
// TrainSource on a source must train the bit-identical network Train does on
// the materialized rows. The second input is the same spec stored as JSON
// with the "prefetch" field that older specs carried: it must still decode
// and train the same network.
func TestTrainSourceMatchesTrain(t *testing.T) {
	train := tinyData(120, 1)
	val := tinyData(40, 2)
	r := &Runner{}
	spec := tinySpec(6)
	spec.KeepBest = true

	want, err := r.Train(spec, train, val)
	if err != nil {
		t.Fatal(err)
	}
	src, err := dataset.FromDataset(train)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw[:len(raw)-1], `,"prefetch":3}`...)
	var stored TopologySpec
	if err := json.Unmarshal(raw, &stored); err != nil {
		t.Fatalf("stored spec with prefetch: %v", err)
	}
	for _, tc := range []struct {
		name string
		spec TopologySpec
	}{{"spec", spec}, {"stored spec", stored}} {
		got, err := r.TrainSource(tc.spec, src, val)
		if err != nil {
			t.Fatal(err)
		}
		wp, gp := want.Model.Params(), got.Model.Params()
		for i := range wp {
			for j := range wp[i].Data {
				if math.Float64bits(wp[i].Data[j]) != math.Float64bits(gp[i].Data[j]) {
					t.Fatalf("%s: param %d[%d] differs: %v vs %v",
						tc.name, i, j, gp[i].Data[j], wp[i].Data[j])
				}
			}
		}
		if got.ValMAE != want.ValMAE {
			t.Fatalf("%s: val MAE %v vs %v", tc.name, got.ValMAE, want.ValMAE)
		}
	}
}

// TestTrainSourceResume pins resume-if-checkpoint-exists: a run killed after
// some epochs continues from its checkpoint and lands on the bit-identical
// network of an uninterrupted run.
func TestTrainSourceResume(t *testing.T) {
	train := tinyData(96, 3)
	val := tinyData(32, 4)
	src, err := dataset.FromDataset(train)
	if err != nil {
		t.Fatal(err)
	}
	r := &Runner{}

	straight := tinySpec(5)
	want, err := r.TrainSource(straight, src, val)
	if err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(t.TempDir(), "tiny.ckpt")
	partial := tinySpec(3)
	partial.Checkpoint = ckpt
	if _, err := r.TrainSource(partial, src, val); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}

	var buf bytes.Buffer
	r2 := &Runner{Verbose: &buf}
	full := tinySpec(5)
	full.Checkpoint = ckpt
	got, err := r2.TrainSource(full, src, val)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "resuming") {
		t.Fatalf("resume not reported:\n%s", buf.String())
	}
	wp, gp := want.Model.Params(), got.Model.Params()
	for i := range wp {
		for j := range wp[i].Data {
			if math.Float64bits(wp[i].Data[j]) != math.Float64bits(gp[i].Data[j]) {
				t.Fatalf("resumed param %d[%d] differs: %v vs %v", i, j, gp[i].Data[j], wp[i].Data[j])
			}
		}
	}
}

func TestTrainSourceValidatesInput(t *testing.T) {
	r := &Runner{}
	if _, err := r.TrainSource(tinySpec(1), nil, tinyData(5, 6)); err == nil {
		t.Fatal("nil source must error")
	}
	// an unreadable checkpoint file must fail loudly, not silently retrain
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.ckpt")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := tinySpec(1)
	spec.Checkpoint = bad
	src, err := dataset.FromDataset(tinyData(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.TrainSource(spec, src, tinyData(5, 6)); err == nil {
		t.Fatal("corrupt checkpoint must error")
	}
}
