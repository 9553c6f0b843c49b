package core

import (
	"slices"
	"testing"
	"time"

	"hssort/internal/comm"
	"hssort/internal/dist"
)

// TestSortForcedPipelinedCollectives drives the probe broadcast and the
// histogram reduction through the pipelined (chunked chain) path by
// setting the threshold to 1 — the configuration §5.1 assumes for large
// histograms — and verifies the sort end to end.
func TestSortForcedPipelinedCollectives(t *testing.T) {
	const p, perRank = 6, 1500
	spec := dist.Spec{Kind: dist.Gaussian}
	shards := spec.Shards(perRank, p, 21)
	in := make([][]int64, p)
	for i := range shards {
		in[i] = slices.Clone(shards[i])
	}
	outs := make([][]int64, p)
	var stats Stats
	w := comm.NewWorld(p, comm.WithTimeout(60*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		out, st, err := sortHSS(c, in[c.Rank()], Pipeline[int64]{}, Options[int64]{
			Cmp:               icmp,
			Epsilon:           0.1,
			Seed:              3,
			PipelineThreshold: 1,  // everything pipelined
			PipelineChunk:     16, // many chunks per message
		})
		if err != nil {
			return err
		}
		outs[c.Rank()] = out
		if c.Rank() == 0 {
			stats = st
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGloballySorted(t, shards, outs)
	if stats.Imbalance > 1.1+1e-9 {
		t.Errorf("imbalance %.4f under pipelined collectives", stats.Imbalance)
	}
}

// TestSortPipelineThresholdBoundary runs both sides of the threshold on
// identical input and seeds: results must be identical — the collective
// implementation must not leak into the algorithm's decisions.
func TestSortPipelineThresholdBoundary(t *testing.T) {
	const p, perRank = 4, 1200
	run := func(threshold int) []int64 {
		spec := dist.Spec{Kind: dist.Uniform}
		shards := spec.Shards(perRank, p, 33)
		outs := make([][]int64, p)
		w := comm.NewWorld(p, comm.WithTimeout(60*time.Second))
		err := w.Run(func(c *comm.Comm) error {
			out, _, err := sortHSS(c, shards[c.Rank()], Pipeline[int64]{}, Options[int64]{
				Cmp: icmp, Epsilon: 0.1, Seed: 5,
				PipelineThreshold: threshold, PipelineChunk: 8,
			})
			outs[c.Rank()] = out
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		var flat []int64
		for _, o := range outs {
			flat = append(flat, o...)
		}
		return flat
	}
	binomial := run(1 << 30)
	pipelined := run(1)
	if !slices.Equal(binomial, pipelined) {
		t.Fatal("collective choice changed the sorted output")
	}
}
