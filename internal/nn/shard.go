package nn

import "specml/internal/parallel"

// Kernel sharding. Inside FitSource the batched convolution, activation and
// LSTM kernels split each call over FitConfig.Workers goroutines. Every
// kernel splits along an axis whose output elements are disjoint between
// shards — samples, GEMM rows, conv filters, LSTM gate rows — so each
// element is still produced by its single ascending-k accumulator and the
// results are bit-identical for any worker count. PredictBatch sets the
// same count from its workers argument for the length of one call.
// Everywhere else (EvaluateMAE, the chunked evaluators outside a fit) the
// count is one and the kernels run serially on the caller's goroutine.

// shardMinWork is the least work, in multiply-adds, one shard must
// receive; smaller calls run serially. Waking an idle core for a fork/join
// costs about 10 µs. With the AVX2 GEMM and axpy kernels a multiply-add
// costs about 0.1 ns, and each GemmNT shard packs its own B panels, so on
// the 2-core Xeon a Table-1 conv layer (25 filters, fanIn 500) split into
// two shards ran, against serial: 35% slower forward and 15% slower input
// gradient at 2^16 multiply-adds per shard; 15% slower forward and 17%
// faster input gradient at 2^17; 10-20% faster for both at 2^18. The
// portable kernels (no AVX2, or SPECML_NOASM) take about 0.5 ns per
// multiply-add and would already pay from 2^16; they run with the same
// constant.
const shardMinWork = 1 << 18

// activationForwardWork and activationBackwardWork price one element of an
// activation layer's batched passes in multiply-adds, so that a shard
// receives at least shardMinWork/price elements. They were measured on the
// 2-core Xeon with a SELU layer over uniform(-1, 1) rows, one worker
// against two, three runs per size. The forward slice kernel takes 6-12 ns
// per element (SELU's exp and a branch taken at random); two shards broke
// even at 2048 elements each and were 25-45% faster from 4096, so the
// forward price is 64 (4096 elements per shard). The backward pass is one
// multiply per element at about 1 ns, bound by memory; two shards were no
// faster up to 16384 elements each and 13-36% faster from 32768, so the
// backward price is 8 (32768 elements per shard).
const (
	activationForwardWork  = 64
	activationBackwardWork = 8
)

// kernelShards holds a layer's kernel worker count. Layers embed it and
// model.setKernelWorkers sets it.
type kernelShards struct{ workers int }

func (k *kernelShards) setKernelWorkers(n int) { k.workers = n }

// shards returns how many contiguous ranges to split `units` independent
// units of `work` total into: at most the worker count, at most one per
// unit, and never so many that a shard drops below shardMinWork. A result
// of 1 means the caller runs the serial path, building no closure.
func (k *kernelShards) shards(units, work int) int {
	w := k.workers
	if w > units {
		w = units
	}
	if maxW := work / shardMinWork; w > maxW {
		w = maxW
	}
	if w < 1 {
		return 1
	}
	return w
}

// runShards calls fn on w contiguous ranges covering [0, units), one per
// pool worker, and returns when all are done. A panic in a shard is
// re-raised on the caller's goroutine.
func runShards(w, units int, fn func(lo, hi int)) {
	err := parallel.For(w, w, func(_, i int) error {
		fn(i*units/w, (i+1)*units/w)
		return nil
	})
	if err != nil {
		panic(err)
	}
}

// kernelSharded is implemented by the layers whose batched kernels shard.
type kernelSharded interface{ setKernelWorkers(n int) }

// setKernelWorkers sets the kernel worker count of every sharding layer.
func (m *Model) setKernelWorkers(n int) {
	for _, l := range m.layers {
		if ks, ok := l.(kernelSharded); ok {
			ks.setKernelWorkers(n)
		}
	}
}
