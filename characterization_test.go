package hssort

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hssort/internal/dist"
)

// updateGolden rewrites testdata golden files instead of comparing
// against them: go test -run TestPipelineCharacterization -update .
var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

const characterizationGolden = "testdata/pipeline_characterization.golden"

// characterizationAlgs is every splitter-based algorithm, in the order
// the golden file lists them.
var characterizationAlgs = []Algorithm{
	HSS, HSSOneRound, HSSTheoretical, SampleSortRegular, SampleSortRandom, HistogramSort, NodeHSS,
}

// characterizationPlanes are the four key planes with the engine that
// runs each. admits reports whether the algorithm accepts the plane
// (HistogramSort needs key-space arithmetic, which comparator-only keys
// and records lack).
var characterizationPlanes = []struct {
	name   string
	admits func(Algorithm) bool
	run    func(t *testing.T, cfg Config, mode string) characterization
}{
	{"comparator", notHistogramSort, func(t *testing.T, cfg Config, mode string) characterization {
		return characterize(t, cfg, mode, func(cfg Config) (*Sorter[int64], error) {
			return NewFunc(cfg, cmp.Compare[int64])
		}, charInts(17), charInts(99))
	}},
	{"kv", notHistogramSort, func(t *testing.T, cfg Config, mode string) characterization {
		return characterize(t, cfg, mode, func(cfg Config) (*Sorter[KV[int64, int32]], error) {
			s, err := NewKV[int64, int32](cfg)
			if err != nil {
				return nil, err
			}
			return s.s, nil
		}, charRecords(charInts(17)), charRecords(charInts(99)))
	}},
	{"bijective", func(Algorithm) bool { return true }, func(t *testing.T, cfg Config, mode string) characterization {
		return characterize(t, cfg, mode, New[int64], charInts(17), charInts(99))
	}},
	{"prefix", func(Algorithm) bool { return true }, func(t *testing.T, cfg Config, mode string) characterization {
		return characterize(t, cfg, mode, NewBytes, charBytes(charInts(17)), charBytes(charInts(99)))
	}},
}

func notHistogramSort(a Algorithm) bool { return a != HistogramSort }

// charInts is the characterization input: 4 ranks of duplicate-bearing
// skewed keys. Seed 99 draws the unrelated distribution the stale plans
// are trained on.
func charInts(seed uint64) [][]int64 {
	kind := dist.PowerSkew
	if seed != 17 {
		kind = dist.Uniform
	}
	return dist.Spec{Kind: kind, Min: 0, Max: 1 << 20}.Shards(1200, 4, seed)
}

// charRecords decorates keys with their (rank, index) origin as payload.
func charRecords(shards [][]int64) [][]KV[int64, int32] {
	out := make([][]KV[int64, int32], len(shards))
	for r, s := range shards {
		for i, k := range s {
			out[r] = append(out[r], KV[int64, int32]{Key: k, Val: int32(r<<16 | i)})
		}
	}
	return out
}

// charBytes maps keys to 9-byte strings whose 8-byte prefix code drops
// the key's low byte, so keys differing only there collide on the code
// and exercise the prefix plane's comparator tie-break.
func charBytes(shards [][]int64) [][][]byte {
	out := make([][][]byte, len(shards))
	for r, s := range shards {
		for _, k := range s {
			b := []byte("pfx:")
			b = binary.BigEndian.AppendUint32(b, uint32(k>>8))
			out[r] = append(out[r], append(b, byte(k)))
		}
	}
	return out
}

// characterization is one run's observable outcome: the output digest,
// the protocol and traffic counters, and (for plan modes) the plan.
type characterization struct {
	digest string
	stats  Stats
	plan   string
}

func (c characterization) line(name string) string {
	s := c.stats
	return fmt.Sprintf("%s digest=%s rounds=%d sample=%d splitterBytes=%d exchangeBytes=%d msgs=%d bytes=%d replanned=%v%s",
		name, c.digest, s.Rounds, s.TotalSample, s.SplitterBytes, s.ExchangeBytes, s.TotalMsgs, s.TotalBytes, s.Replanned, c.plan)
}

// digestOf hashes per-rank outputs, rank boundaries included.
func digestOf[K any](outs [][]K) string {
	h := sha256.New()
	for r, o := range outs {
		fmt.Fprintf(h, "#%d:%d|", r, len(o))
		for _, k := range o {
			fmt.Fprintf(h, "%v|", k)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// characterize runs one (algorithm, plane, mode) cell: "sort" is a full
// Sort; "plan" prepares a Plan on the input and sorts with it; "replan"
// sorts with a plan trained on an unrelated distribution under a tight
// staleness bound, forcing the guard to re-histogram.
func characterize[K any](t *testing.T, cfg Config, mode string, newEngine func(Config) (*Sorter[K], error), data, stale [][]K) characterization {
	t.Helper()
	if mode == "replan" {
		cfg.PlanStaleness = 1.01
	}
	s, err := newEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	var res characterization
	var outs [][]K
	switch mode {
	case "sort":
		outs, res.stats, err = s.Sort(ctx, cloneAny(data))
	case "plan", "replan":
		train := data
		if mode == "replan" {
			train = stale
		}
		plan, perr := s.Plan(ctx, cloneAny(train))
		if perr != nil {
			t.Fatal(perr)
		}
		res.plan = fmt.Sprintf(" plan=[splitters=%s rounds=%d sample=%d finalized=%v achieved=%.6f]",
			digestOf([][]K{plan.Splitters}), plan.Rounds, plan.TotalSample, plan.Finalized, plan.AchievedEpsilon)
		outs, res.stats, err = s.SortWithPlan(ctx, plan, cloneAny(data))
	}
	if err != nil {
		t.Fatal(err)
	}
	if mode == "replan" && !res.stats.Replanned {
		t.Fatalf("stale plan was not replanned")
	}
	res.digest = digestOf(outs)
	return res
}

// TestPipelineCharacterization pins the observable behaviour of every
// splitter-based algorithm on every admissible key plane, for full
// sorts, plan reuse and forced stale replans: output digest, protocol
// counters (rounds, sample) and byte-accounted traffic on the sim
// transport with the materializing exchange must match the golden file
// exactly. A second pass re-runs every cell over the streaming exchange
// and requires the same output digest.
func TestPipelineCharacterization(t *testing.T) {
	var lines []string
	digests := map[string]string{}
	for _, alg := range characterizationAlgs {
		for _, pl := range characterizationPlanes {
			if !pl.admits(alg) {
				continue
			}
			for _, mode := range []string{"sort", "plan", "replan"} {
				cfg := Config{Procs: 4, Algorithm: alg, Epsilon: 0.05, Seed: 7, Workers: 1}
				if alg == NodeHSS {
					cfg.CoresPerNode = 2
				}
				name := fmt.Sprintf("%v/%s/%s", alg, pl.name, mode)
				res := pl.run(t, cfg, mode)
				lines = append(lines, res.line(name))
				digests[name] = res.digest

				cfg.StreamExchange = true
				if got := pl.run(t, cfg, mode).digest; got != res.digest {
					t.Errorf("%s: streaming exchange digest %s, materializing %s", name, got, res.digest)
				}
			}
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(characterizationGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(characterizationGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(characterizationGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d cells, run produced %d", len(want), len(lines))
	}
	for i := range lines {
		if lines[i] != want[i] {
			t.Errorf("cell diverged from golden:\n got  %s\n want %s", lines[i], want[i])
		}
	}
	// Plans and full sorts of the same input agree by construction.
	for name, d := range digests {
		if sortName, ok := strings.CutSuffix(name, "/plan"); ok {
			if sd := digests[sortName+"/sort"]; d != sd {
				t.Errorf("%s: plan-reuse output %s differs from full sort %s", name, d, sd)
			}
		}
	}
}
