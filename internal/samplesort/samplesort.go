package samplesort

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/exchange"
	"hssort/internal/merge"
	"hssort/internal/sampling"
)

// Method selects the sampling method.
type Method int

const (
	// Regular picks s evenly spaced keys per processor (§4.1.2).
	Regular Method = iota
	// Random picks one uniform key per block of N/(ps) keys (§4.1.1).
	Random
)

// String returns the method name used in experiment output.
func (m Method) String() string {
	switch m {
	case Regular:
		return "regular"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Options configures sample sort's sampling phase — its Determiner
// (Options.Determine); the rest of the sort is the shared pipeline
// driver's (core.Run). Cmp is required.
type Options[K any] struct {
	// Cmp is the three-way key comparator.
	Cmp func(K, K) int
	// Epsilon is the target load-imbalance threshold. Default 0.05.
	Epsilon float64
	// Buckets is the number of output ranges. Default: world size.
	Buckets int
	// Method selects regular or random sampling. Default Regular.
	Method Method
	// Oversample is the per-processor sample size s. Default: the
	// method's provable value — B/ε for Regular (Lemma 4.1.1),
	// 4(1+ε)ln N/ε² for Random (§4.1.1) — capped by MaxOversample.
	Oversample int
	// MaxOversample caps s so huge configurations stay runnable;
	// 0 means no cap. The cap mirrors what practical deployments do and
	// is reported in Stats so experiments can show the guarantee/cost
	// trade-off.
	MaxOversample int
	// Seed drives random sampling. Default 1.
	Seed uint64
}

func (o Options[K]) withDefaults(p int, n int64) (Options[K], error) {
	if o.Cmp == nil {
		return o, fmt.Errorf("samplesort: Options.Cmp is required")
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.05
	}
	if o.Epsilon < 0 {
		return o, fmt.Errorf("samplesort: Epsilon %v < 0", o.Epsilon)
	}
	if o.Buckets == 0 {
		o.Buckets = p
	}
	if o.Buckets < 1 {
		return o, fmt.Errorf("samplesort: Buckets %d < 1", o.Buckets)
	}
	if o.Oversample == 0 {
		switch o.Method {
		case Regular:
			o.Oversample = int(math.Ceil(float64(o.Buckets) / o.Epsilon))
		case Random:
			if n < 2 {
				n = 2
			}
			o.Oversample = int(math.Ceil(4 * (1 + o.Epsilon) * math.Log(float64(n)) / (o.Epsilon * o.Epsilon)))
		}
	}
	if o.Oversample < 1 {
		o.Oversample = 1
	}
	if o.MaxOversample > 0 && o.Oversample > o.MaxOversample {
		o.Oversample = o.MaxOversample
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o, nil
}

// Sampling-phase tags, within the pipeline's splitter range.
const (
	tagGather = core.SplitterTag     // sample gather
	tagSplit  = core.SplitterTag + 1 // splitter broadcast (+1)
)

// Determine is sample sort's Determiner — the sampling phase (§2.2
// steps 1-2): every rank contributes s keys from its sorted local, the
// root merges the combined sample and selects evenly spaced splitters,
// broadcast to all ranks. One round; the sample is the combined size.
func (o Options[K]) Determine(c *comm.Comm, local []K, n int64) ([]K, core.SplitterInfo, error) {
	opt, err := o.withDefaults(c.Size(), n)
	if err != nil {
		return nil, core.SplitterInfo{}, err
	}
	var mine []K
	switch opt.Method {
	case Regular:
		mine = sampling.Regular(local, opt.Oversample)
	case Random:
		rng := rand.New(rand.NewPCG(opt.Seed, uint64(c.Rank())*0x9e3779b97f4a7c15))
		mine = sampling.RandomBlock(local, opt.Oversample, rng)
	default:
		return nil, core.SplitterInfo{}, fmt.Errorf("samplesort: unknown method %d", opt.Method)
	}
	parts, err := collective.Gatherv(c, 0, tagGather, mine)
	if err != nil {
		return nil, core.SplitterInfo{}, err
	}
	var splitters []K
	var sampleSize int64
	if c.Rank() == 0 {
		// Merge the p sorted per-rank samples (duplicates retained: the
		// splitter index formula depends on the full multiset).
		lambda := mergeParts(parts, opt.Cmp)
		sampleSize = int64(len(lambda))
		splitters = selectSplitters(lambda, c.Size(), opt)
	}
	splitters, err = collective.Bcast(c, 0, tagSplit, splitters)
	if err != nil {
		return nil, core.SplitterInfo{}, err
	}
	size, err := collective.BcastValue(c, 0, tagSplit+1, sampleSize)
	if err != nil {
		return nil, core.SplitterInfo{}, err
	}
	// The one-time validation that lets exchange.Partition skip its
	// per-call O(B) re-check.
	exchange.ValidateSplitters(splitters, opt.Cmp)
	return splitters, core.SplitterInfo{Rounds: 1, SamplePerRound: []int64{size}, TotalSample: size, Finalized: true}, nil
}

// mergeParts pairwise-merges sorted per-rank samples.
func mergeParts[K any](parts [][]K, cmp func(K, K) int) []K {
	for len(parts) > 1 {
		var next [][]K
		for i := 0; i+1 < len(parts); i += 2 {
			next = append(next, merge.Two(parts[i], parts[i+1], cmp))
		}
		if len(parts)%2 == 1 {
			next = append(next, parts[len(parts)-1])
		}
		parts = next
	}
	if len(parts) == 0 {
		return nil
	}
	return parts[0]
}

// selectSplitters picks B-1 splitters from the combined sorted sample Λ.
// Regular sampling uses the shifted index λ_{s·i − p/2} of §4.1.2
// (generalized to B buckets via the sample fraction i/B with a half-block
// back-shift); random sampling picks evenly spaced keys (§4.1.1).
func selectSplitters[K any](lambda []K, p int, opt Options[K]) []K {
	m := len(lambda)
	b := opt.Buckets
	if m == 0 || b == 1 {
		// No sample (empty input) or a single bucket: no splitters —
		// everything lands in bucket 0.
		return []K{}
	}
	out := make([]K, 0, b-1)
	for i := 1; i < b; i++ {
		var idx int
		switch opt.Method {
		case Regular:
			// 1-based λ_{s·i − p/2} with s·i generalized to i·M/B.
			idx = i*m/b - p/2 - 1
		default:
			idx = i * m / b
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= m {
			idx = m - 1
		}
		out = append(out, lambda[idx])
	}
	// Clamping can invert neighbours on tiny samples; restore order.
	slices.SortFunc(out, opt.Cmp)
	return out
}
