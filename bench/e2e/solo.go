package main

import (
	"sync"
	"time"

	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/ingest"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/xrand"
)

// timeCalls calls fn until d has passed (at least 5 times) and returns
// each call's duration in nanoseconds.
func timeCalls(d time.Duration, fn func()) []int64 {
	var ns []int64
	for start := time.Now(); len(ns) < 5 || time.Since(start) < d; {
		t0 := time.Now()
		fn()
		ns = append(ns, int64(time.Since(t0)))
	}
	return ns
}

func randomMatrix(rows, cols int, rng *xrand.RNG) *tensor.Matrix {
	m := tensor.New(rows, cols)
	tensor.UniformInit(m, 1, rng)
	return m
}

// solo times single layers at the workload's shapes with nothing else
// running, splitting d between them. These are the numbers a change to
// one layer should move first.
func (r *rig) solo(m map[string]float64, d time.Duration) error {
	w := r.w
	rng := xrand.New(r.seedFor(7))
	slice := d / 8

	// tensor: the fused forward GEMM of the workload's widest layer.
	in, out := 0, 0
	for _, dims := range [][]int{w.cfg.BottomDims(), w.cfg.TopDims()} {
		for i := 0; i+1 < len(dims); i++ {
			if dims[i]*dims[i+1] > in*out {
				in, out = dims[i], dims[i+1]
			}
		}
	}
	x, wt, y := randomMatrix(w.batch, in, rng), randomMatrix(in, out, rng), tensor.New(w.batch, out)
	bias := make([]float32, out)
	gemm := timeCalls(slice, func() { tensor.MatMulBiasReLU(y, x, wt, bias, true) })
	m["tensor.gemm_gflops"] = 2 * float64(w.batch) * float64(in) * float64(out) / median(msOf(gemm)) / 1e6

	// nn: the top stack alone, and the loss.
	top := nn.NewMLP(w.cfg.TopDims(), rng)
	xTop := randomMatrix(w.batch, w.cfg.InteractionDim(), rng)
	dOut := tensor.New(w.batch, 1)
	dOut.Fill(1 / float32(w.batch))
	m["nn.mlp_fwd_ms"] = median(msOf(timeCalls(slice, func() { top.Forward(xTop) })))
	m["nn.mlp_bwd_ms"] = median(msOf(timeCalls(slice, func() { top.ZeroGrad(); top.Backward(dOut) })))
	logits, labels, grad := make([]float32, w.batch), make([]float32, w.batch), make([]float32, w.batch)
	for i := range logits {
		logits[i] = float32(rng.Norm())
	}
	m["nn.loss_ms"] = median(msOf(timeCalls(slice, func() { nn.BCEWithLogits(logits, labels, grad) })))

	// embedding: initialising one table of the workload's shape.
	t0 := time.Now()
	embedding.NewTable("solo", w.cfg.Sparse[0].HashSize, w.cfg.EmbeddingDim, rng)
	m["embedding.table_init_s"] = time.Since(t0).Seconds()

	// data: one generated batch. The loop does this outside the clock.
	var mb *core.MiniBatch
	g := r.gen.Fork(r.seedFor(8))
	m["data.next_batch_ms"] = median(msOf(timeCalls(slice, func() { mb = g.NextBatchInto(w.batch, mb) })))

	if r.hyb != nil {
		r.soloCollective(m)
	}
	if r.pipe != nil {
		return r.soloDrain(m, slice)
	}
	return nil
}

// soloCollective has two goroutines exchange the workload's per-step
// payloads at its wire format with no compute between the calls.
func (r *rig) soloCollective(m map[string]float64) {
	const ranks, a2aCalls, arCalls = 2, 200, 50
	w := r.w
	world := collective.NewWorld(ranks, collective.Link{})
	a2a, ar := world.NewGroup(), world.NewGroup()
	a2a.SetWire(w.wire)
	ar.SetWire(w.wire)

	owned := make([]int, ranks)
	for ti := range w.cfg.Sparse {
		owned[r.hyb.Owner(ti)]++
	}
	rows := w.batch / ranks * w.cfg.EmbeddingDim // one rank's examples of one table
	flat := int(w.cfg.DenseParamBytes() / 4)

	var a2aNs, arNs []int64
	var wg sync.WaitGroup
	for id := 0; id < ranks; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			send, recv := make([][]float32, ranks), make([][]float32, ranks)
			for j := range send {
				send[j] = make([]float32, owned[id]*rows)
				recv[j] = make([]float32, owned[j]*rows)
			}
			buf := make([]float32, flat)
			for i := 0; i < a2aCalls; i++ {
				t0 := time.Now()
				_ = a2a.AllToAllV(id, send, recv) // errors only under fault injection, which is off
				if id == 0 {
					a2aNs = append(a2aNs, int64(time.Since(t0)))
				}
			}
			for i := 0; i < arCalls; i++ {
				t0 := time.Now()
				_ = ar.AllReduce(id, buf)
				if id == 0 {
					arNs = append(arNs, int64(time.Since(t0)))
				}
			}
		}(id)
	}
	wg.Wait()
	m["collective.a2a_solo_us"] = median(msOf(a2aNs)) * 1e3
	m["collective.allreduce_solo_us"] = median(msOf(arNs)) * 1e3
}

// soloDrain pulls batches from a second pipeline over the same shards
// with no trainer behind it: the reader tier's own ceiling.
func (r *rig) soloDrain(m map[string]float64, d time.Duration) error {
	p, err := ingest.Open(r.ds, r.w.cfg, ingest.Options{
		BatchSize: r.w.batch, Readers: 1, Dedup: r.w.dedup, Seed: r.seedFor(9),
	})
	if err != nil {
		return err
	}
	defer p.Close()
	examples := 0
	start := time.Now()
	for time.Since(start) < d {
		b, err := p.NextBatch()
		if err != nil {
			return err
		}
		examples += b.Batch()
		p.Recycle(b)
	}
	m["ingest.drain_examples_per_sec"] = float64(examples) / time.Since(start).Seconds()
	return nil
}
