package tagging

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hssort/internal/comm"
	"hssort/internal/core"
)

func icmp(a, b int64) int { return cmp.Compare(a, b) }

func TestCmpTotalOrder(t *testing.T) {
	c := Cmp(icmp)
	a := Tagged[int64]{Key: 5, PE: 0, Idx: 0}
	b := Tagged[int64]{Key: 5, PE: 0, Idx: 1}
	d := Tagged[int64]{Key: 5, PE: 1, Idx: 0}
	e := Tagged[int64]{Key: 6, PE: 0, Idx: 0}
	if c(a, b) >= 0 || c(b, d) >= 0 || c(d, e) >= 0 {
		t.Error("order (key, PE, Idx) violated")
	}
	if c(a, a) != 0 {
		t.Error("reflexivity violated")
	}
	if c(e, a) <= 0 {
		t.Error("antisymmetry violated")
	}
}

func TestCmpProperty(t *testing.T) {
	c := Cmp(icmp)
	f := func(k1, k2 int64, pe1, pe2 int16, i1, i2 int16) bool {
		a := Tagged[int64]{Key: k1, PE: int32(pe1), Idx: int32(i1)}
		b := Tagged[int64]{Key: k2, PE: int32(pe2), Idx: int32(i2)}
		// Antisymmetry and distinctness: equal only when identical.
		if c(a, b) == 0 {
			return a == b
		}
		return c(a, b) == -c(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWrapUnwrapRoundTrip(t *testing.T) {
	keys := []int64{5, 5, 3, 5}
	tagged := Wrap(keys, 7)
	for i, tg := range tagged {
		if tg.Key != keys[i] || tg.PE != 7 || tg.Idx != int32(i) {
			t.Fatalf("tag %d = %+v", i, tg)
		}
	}
	if !slices.Equal(Unwrap(tagged), keys) {
		t.Error("unwrap mismatch")
	}
}

// sortHSS runs an HSS sort of tagged keys on the comparator plane.
func sortHSS(c *comm.Comm, local []Tagged[int64], opt core.Options[Tagged[int64]]) ([]Tagged[int64], core.Stats, error) {
	return core.Run(c, local, core.KeyPlane(opt.Cmp, nil), core.Pipeline[Tagged[int64]]{}, opt.Determine)
}

// TestDuplicatesWithTaggingBalances is the §4.3 payoff: an all-duplicates
// input that defeats plain HSS load balance sorts with (1+ε) balance once
// tagged.
func TestDuplicatesWithTaggingBalances(t *testing.T) {
	const p, perRank = 4, 1000
	shards := make([][]int64, p)
	for r := range shards {
		shards[r] = make([]int64, perRank)
		for i := range shards[r] {
			shards[r][i] = int64(i % 2) // two distinct values, massive duplication
		}
	}
	outs := make([][]int64, p)
	var imb float64
	w := comm.NewWorld(p, comm.WithTimeout(60*time.Second))
	err := w.Run(func(c *comm.Comm) error {
		tagged := Wrap(shards[c.Rank()], c.Rank())
		out, st, err := sortHSS(c, tagged, core.Options[Tagged[int64]]{
			Cmp: Cmp(icmp), Epsilon: 0.1, Seed: 3,
		})
		if err != nil {
			return err
		}
		outs[c.Rank()] = Unwrap(out)
		if c.Rank() == 0 {
			imb = st.Imbalance
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var got, want []int64
	for _, s := range shards {
		want = append(want, s...)
	}
	slices.Sort(want)
	for r, o := range outs {
		if !slices.IsSorted(o) {
			t.Fatalf("rank %d output not sorted", r)
		}
		got = append(got, o...)
	}
	if !slices.Equal(got, want) {
		t.Fatal("not the sorted permutation")
	}
	if imb > 1.1+1e-9 {
		t.Errorf("tagged duplicate sort imbalance %.4f, want <= 1+ε", imb)
	}
}

func TestTaggedSortPreservesPerKeyCounts(t *testing.T) {
	f := func(seed uint32) bool {
		const p = 3
		shards := make([][]int64, p)
		counts := map[int64]int{}
		for r := range shards {
			n := int(seed%200) + 10
			shards[r] = make([]int64, n)
			for i := range shards[r] {
				v := int64((int(seed) + i*r) % 5)
				shards[r][i] = v
				counts[v]++
			}
		}
		got := map[int64]int{}
		w := comm.NewWorld(p, comm.WithTimeout(30*time.Second))
		var outs [p][]int64
		err := w.Run(func(c *comm.Comm) error {
			out, _, err := sortHSS(c, Wrap(shards[c.Rank()], c.Rank()), core.Options[Tagged[int64]]{
				Cmp: Cmp(icmp), Epsilon: 0.2, Seed: uint64(seed) + 1,
			})
			outs[c.Rank()] = Unwrap(out)
			return err
		})
		if err != nil {
			return false
		}
		for _, o := range outs {
			for _, k := range o {
				got[k]++
			}
		}
		if len(got) != len(counts) {
			return false
		}
		for k, n := range counts {
			if got[k] != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
