package main

import (
	"fmt"
	"time"

	"specml/internal/msim"
	"specml/internal/nmrsim"
	"specml/internal/nn"
	"specml/internal/platform"
	"specml/internal/rng"
	"specml/internal/toolflow"
)

// stack is one of the paper's three networks, as served and trained here.
type stack struct {
	metric string // metric-name prefix: nn.<metric>.*
	model  string // served model name
}

var (
	msTable1 = stack{"ms_table1", "ms-table1"}
	nmrCNN   = stack{"nmr_cnn", "nmr-cnn"}
	nmrLSTM  = stack{"nmr_lstm", "nmr-lstm"}
	stacks   = []stack{msTable1, nmrCNN, nmrLSTM}
)

const lstmSteps = 5

// spec returns the stack's topology: one epoch of batch-32 Adam, weights
// initialized from seed.
func (s stack) spec(seed uint64) (toolflow.TopologySpec, error) {
	switch s {
	case msTable1:
		return toolflow.MSTable1Spec(msim.DefaultAxis().N, len(msim.DefaultTask),
			"selu", "softmax", "softmax", 1, 32, seed)
	case nmrCNN:
		return toolflow.NMRCNNSpec(nmrsim.Axis().N, nmrsim.NumComponents, 1, 32, seed), nil
	case nmrLSTM:
		return toolflow.NMRLSTMSpec(lstmSteps, nmrsim.Axis().N, nmrsim.NumComponents, 1, 32, seed), nil
	}
	return toolflow.TopologySpec{}, fmt.Errorf("specbench: unknown stack %q", s.metric)
}

// swept reports whether the sweep times a layer kind: reshape and flatten
// only relabel their input.
func swept(kind string) bool { return kind != "reshape" && kind != "flatten" }

// countsFLOPs reports whether a layer kind gets an achieved-GFLOP/s metric.
func countsFLOPs(kind string) bool {
	switch kind {
	case "conv1d", "dense", "lstm", "locallyconnected1d":
		return true
	}
	return false
}

// layerPrefix names the metrics of layer i of the stack.
func (s stack) layerPrefix(i int, kind string) string {
	return fmt.Sprintf("nn.%s.%d_%s", s.metric, i, kind)
}

// layerNames lists the per-layer metric names of one stack.
func (s stack) layerNames() ([]string, error) {
	spec, err := s.spec(1)
	if err != nil {
		return nil, err
	}
	var names []string
	for i, l := range spec.Layers {
		if !swept(l.Type) {
			continue
		}
		p := s.layerPrefix(i, l.Type)
		names = append(names, p+".fwd_ms", p+".bwd_ms")
		if countsFLOPs(l.Type) {
			names = append(names, p+".fwd_gflops")
		}
	}
	return append(names, fmt.Sprintf("nn.%s.opt_step_ms", s.metric)), nil
}

// layerFLOPs returns the forward FLOPs per sample of each layer of spec,
// as differences of platform.CountModel over growing prefixes of the stack.
func layerFLOPs(spec toolflow.TopologySpec) ([]int64, error) {
	out := make([]int64, len(spec.Layers))
	prev := int64(0)
	for i := range spec.Layers {
		m, err := nn.FromSpecs(spec.Layers[:i+1])
		if err != nil {
			return nil, err
		}
		if err := m.Build(rng.New(1), spec.InputShape...); err != nil {
			return nil, err
		}
		c, err := platform.CountModel(m)
		if err != nil {
			return nil, err
		}
		out[i] = c.FLOPs - prev
		prev = c.FLOPs
	}
	return out, nil
}

// batchLayer is the batched forward/backward pair every shipped nn layer
// implements.
type batchLayer interface {
	ForwardBatch(x []float64, n int) []float64
	BackwardBatch(gradOut []float64, n int) []float64
}

// sweepBatches is how many mini-batches the sweep times, after one untimed
// warm-up batch.
const sweepBatches = 20

// sweepStack times every layer's batched forward and backward pass and the
// optimizer step of model m (built from spec) on mini-batches of n rows
// taken in order from xs, and adds the per-layer metrics to out. It returns
// the mean time of one whole mini-batch (forward + backward + step) in ms.
// The sweep trains m: it is run on a copy or after the model's last use.
func sweepStack(s stack, spec toolflow.TopologySpec, m *nn.Model, opt nn.Optimizer, xs [][]float64, n, batches int, out map[string]float64) (float64, error) {
	flops, err := layerFLOPs(spec)
	if err != nil {
		return 0, err
	}
	layers := m.Layers()
	bls := make([]batchLayer, len(layers))
	for i, l := range layers {
		bl, ok := l.(batchLayer)
		if !ok {
			return 0, fmt.Errorf("specbench: %s layer %d (%s) has no batched kernel", s.model, i, l.Kind())
		}
		bls[i] = bl
	}
	inLen, outLen := m.InputLen(), m.OutputLen()
	x := make([]float64, n*inLen)
	// A dense, varied output gradient: a constant one would be mapped to
	// exactly zero by a softmax head, and the backward kernels skip zeros.
	g := make([]float64, n*outLen)
	src := rng.New(1)
	for i := range g {
		g[i] = src.Uniform(-1e-3, 1e-3)
	}
	fwd := make([]time.Duration, len(layers))
	bwd := make([]time.Duration, len(layers))
	var step time.Duration
	params := m.Params()
	m.SetTraining(true)
	defer m.SetTraining(false)
	next := 0
	for b := -1; b < batches; b++ {
		for r := 0; r < n; r++ {
			copy(x[r*inLen:(r+1)*inLen], xs[next%len(xs)])
			next++
		}
		m.ZeroGrad()
		h := x
		for i, bl := range bls {
			t0 := time.Now()
			h = bl.ForwardBatch(h, n)
			if b >= 0 {
				fwd[i] += time.Since(t0)
			}
		}
		d := g
		for i := len(bls) - 1; i >= 0; i-- {
			t0 := time.Now()
			d = bls[i].BackwardBatch(d, n)
			if b >= 0 {
				bwd[i] += time.Since(t0)
			}
		}
		t0 := time.Now()
		opt.Step(params)
		if b >= 0 {
			step += time.Since(t0)
		}
	}
	perBatch := func(d time.Duration) float64 { return durMS(d) / float64(batches) }
	total := perBatch(step)
	for i, l := range layers {
		kind := l.Kind()
		if !swept(kind) {
			continue
		}
		p := s.layerPrefix(i, kind)
		out[p+".fwd_ms"] = perBatch(fwd[i])
		out[p+".bwd_ms"] = perBatch(bwd[i])
		total += perBatch(fwd[i]) + perBatch(bwd[i])
		if countsFLOPs(kind) {
			out[p+".fwd_gflops"] = float64(flops[i]) * float64(n) / (perBatch(fwd[i]) * 1e6)
		}
	}
	out[fmt.Sprintf("nn.%s.opt_step_ms", s.metric)] = perBatch(step)
	return total, nil
}
