package main

import (
	"fmt"
	"math"
	"slices"
)

// fingerprint is an order-independent digest of a multiset of int64
// keys: the count plus the sum of a strong mix of every key, modulo
// 2^64. Unlike an XOR digest, duplicated keys do not cancel, so a
// sort that drops one copy of a repeated key and duplicates another
// is caught.
type fingerprint struct {
	n   int64
	sum uint64
}

func (f *fingerprint) add(keys []int64) {
	f.n += int64(len(keys))
	for _, k := range keys {
		f.sum += mix64(uint64(k))
	}
}

func fingerprintOf(shards [][]int64) fingerprint {
	var f fingerprint
	for _, s := range shards {
		f.add(s)
	}
	return f
}

// mix64 is the SplitMix64 finalizer, a bijection on uint64.
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// verify checks that out is the globally sorted form of an input with
// fingerprint want: ordered within each shard and across shard
// boundaries, with the same count and the same multiset digest.
func verify(out [][]int64, want fingerprint) error {
	var prev int64
	seen := false
	for r, s := range out {
		for i, k := range s {
			if seen && k < prev {
				return fmt.Errorf("order violated at shard %d index %d: %d after %d", r, i, k, prev)
			}
			prev, seen = k, true
		}
	}
	got := fingerprintOf(out)
	if got.n != want.n {
		return fmt.Errorf("count %d, want %d", got.n, want.n)
	}
	if got.sum != want.sum {
		return fmt.Errorf("multiset digest %#x, want %#x (keys lost or duplicated)", got.sum, want.sum)
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
