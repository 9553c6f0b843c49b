package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"hssort/internal/comm"
	"hssort/internal/dist"
)

// TestOnRoundTrace verifies the per-round observability hook: it fires
// once per round on the root only, with monotonically non-increasing
// coverage and non-decreasing finalized counts.
func TestOnRoundTrace(t *testing.T) {
	const p, perRank = 6, 2000
	spec := dist.Spec{Kind: dist.Uniform}
	shards := spec.Shards(perRank, p, 3)

	var mu sync.Mutex
	var traces []RoundTrace
	var rounds int
	w := comm.NewWorld(p, comm.WithTimeout(60*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		_, st, err := sortHSS(c, shards[c.Rank()], Pipeline[int64]{}, Options[int64]{
			Cmp: icmp, Epsilon: 0.02, Seed: 5,
			OnRound: func(tr RoundTrace) {
				mu.Lock()
				traces = append(traces, tr)
				mu.Unlock()
			},
		})
		if c.Rank() == 0 {
			rounds = st.Rounds
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(traces) != rounds {
		t.Fatalf("%d traces for %d rounds (hook must fire on root only, once per round)", len(traces), rounds)
	}
	for i, tr := range traces {
		if tr.Round != i+1 {
			t.Errorf("trace %d has round %d", i, tr.Round)
		}
		if tr.Prob <= 0 || tr.Prob > 1 {
			t.Errorf("round %d prob %v", tr.Round, tr.Prob)
		}
		if tr.Probes <= 0 {
			t.Errorf("round %d had no probes", tr.Round)
		}
		if i > 0 {
			if tr.Coverage > traces[i-1].Coverage {
				t.Errorf("coverage grew at round %d: %d -> %d", tr.Round, traces[i-1].Coverage, tr.Coverage)
			}
			if tr.Finalized < traces[i-1].Finalized {
				t.Errorf("finalized count fell at round %d", tr.Round)
			}
		}
	}
	last := traces[len(traces)-1]
	if last.Finalized != p-1 {
		t.Errorf("final trace has %d/%d splitters finalized", last.Finalized, p-1)
	}
}

// TestBucketsExceedKeys exercises the degenerate regime where there are
// more buckets than keys: many targets collapse to the same rank and
// most buckets end empty, but the sort must stay correct.
func TestBucketsExceedKeys(t *testing.T) {
	const p = 4
	shards := [][]int64{{5, 1}, {9}, {3}, {7, 2}}
	in := make([][]int64, p)
	for i := range shards {
		in[i] = slices.Clone(shards[i])
	}
	outs := make([][]int64, p)
	w := comm.NewWorld(p, comm.WithTimeout(30*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		out, _, err := sortHSS(c, in[c.Rank()], Pipeline[int64]{}, Options[int64]{
			Cmp: icmp, Epsilon: 0.1, Buckets: 64, Seed: 3,
		})
		outs[c.Rank()] = out
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGloballySorted(t, shards, outs)
}

// TestTwoRanksMinimal pins the smallest nontrivial world.
func TestTwoRanksMinimal(t *testing.T) {
	shards := [][]int64{{2}, {1}}
	in := [][]int64{{2}, {1}}
	outs := make([][]int64, 2)
	w := comm.NewWorld(2, comm.WithTimeout(30*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		out, _, err := sortHSS(c, in[c.Rank()], Pipeline[int64]{}, Options[int64]{Cmp: icmp, Epsilon: 0.5, Seed: 1})
		outs[c.Rank()] = out
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	checkGloballySorted(t, shards, outs)
}
