package histsort

import (
	"fmt"
	"slices"

	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/exchange"
	"hssort/internal/histogram"
	"hssort/internal/keycoder"
)

// Options configures classic histogram sort's probe refinement — its
// Determiner (Options.Determine); the rest of the sort is the shared
// pipeline driver's (core.Run). Cmp and Coder are required: the coder
// supplies the key-space arithmetic that probe synthesis needs. On the
// prefix plane the determination view is the sorted code array itself,
// and codes.Identity is the Coder that bisects code space directly.
type Options[K any] struct {
	// Cmp is the three-way key comparator.
	Cmp func(K, K) int
	// Coder is the order-preserving key <-> uint64 code bijection.
	Coder keycoder.Coder[K]
	// Epsilon is the target load-imbalance threshold. Default 0.05.
	Epsilon float64
	// Buckets is the number of output ranges. Default: world size.
	Buckets int
	// ProbesPerSplitter is how many evenly spaced probes each
	// unfinalized splitter contributes per round (subdividing its code
	// interval into ProbesPerSplitter+1 parts). Default 1 (pure
	// bisection). Larger values trade histogram size for rounds.
	ProbesPerSplitter int
	// MaxRounds caps refinement rounds; the fallback then uses the
	// closest candidates seen. Default 72 (64-bit bisection + slack).
	MaxRounds int
}

func (o Options[K]) withDefaults(p int) (Options[K], error) {
	if o.Cmp == nil {
		return o, fmt.Errorf("histsort: Options.Cmp is required")
	}
	if o.Coder == nil {
		return o, fmt.Errorf("histsort: Options.Coder is required")
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.05
	}
	if o.Epsilon < 0 {
		return o, fmt.Errorf("histsort: Epsilon %v < 0", o.Epsilon)
	}
	if o.Buckets == 0 {
		o.Buckets = p
	}
	if o.Buckets < 1 {
		return o, fmt.Errorf("histsort: Buckets %d < 1", o.Buckets)
	}
	if o.ProbesPerSplitter < 1 {
		o.ProbesPerSplitter = 1
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 72
	}
	return o, nil
}

// Probe-refinement tags, within the pipeline's splitter range.
const (
	tagProbes = core.SplitterTag     // probe broadcast
	tagRanks  = core.SplitterTag + 1 // histogram reduction
	tagSplit  = core.SplitterTag + 2 // final splitter broadcast
	tagInfo   = core.SplitterTag + 3 // outcome broadcast
)

// splitterSearch is the root's bisection state for one splitter.
type splitterSearch struct {
	lo, hi uint64 // inclusive code interval still containing the splitter
	done   bool
}

// Determine is classic histogram sort's Determiner — the
// probe-refinement loop of §2.3 over locally sorted keys. It returns the
// splitters on every rank with one probe count per round; Finalized is
// false when MaxRounds or an exhausted code interval ended a search
// before its splitter met the target window.
func (o Options[K]) Determine(c *comm.Comm, local []K, n int64) ([]K, core.SplitterInfo, error) {
	opt, err := o.withDefaults(c.Size())
	if err != nil {
		return nil, core.SplitterInfo{}, err
	}
	root := 0
	me := c.Rank()
	info := core.SplitterInfo{Finalized: true}
	if opt.Buckets == 1 || n == 0 {
		return []K{}, info, nil
	}

	var tracker *histogram.Tracker[K]
	var searches []splitterSearch
	if me == root {
		tracker = histogram.NewTracker[K](n, opt.Buckets, opt.Epsilon, opt.Cmp)
		searches = make([]splitterSearch, opt.Buckets-1)
		for i := range searches {
			searches[i] = splitterSearch{lo: 0, hi: ^uint64(0)}
		}
	}

	for {
		// Root synthesizes this round's probes: ProbesPerSplitter
		// evenly spaced codes inside each live interval. An empty probe
		// set signals completion.
		var probes []K
		if me == root {
			probes = synthesizeProbes(searches, tracker, opt)
		}
		probes, err := collective.Bcast(c, root, tagProbes, probes)
		if err != nil {
			return nil, info, err
		}
		if len(probes) == 0 {
			break
		}
		info.Rounds++
		info.SamplePerRound = append(info.SamplePerRound, int64(len(probes)))
		info.TotalSample += int64(len(probes))
		ranks, err := collective.Reduce(c, root, tagRanks,
			histogram.LocalRanks(local, probes, opt.Cmp), collective.SumInt64)
		if err != nil {
			return nil, info, err
		}
		if me == root {
			tracker.Update(probes, ranks)
			narrow(searches, tracker, probes, ranks, opt)
			if info.Rounds >= opt.MaxRounds {
				for i := range searches {
					searches[i].done = true
				}
			}
		}
	}

	var splitters []K
	var finalized int64
	if me == root {
		sp, ok := tracker.Splitters()
		if !ok {
			return nil, info, fmt.Errorf("histsort: no candidates after %d rounds", info.Rounds)
		}
		slices.SortFunc(sp, opt.Cmp)
		splitters = sp
		if tracker.Done() {
			finalized = 1
		}
	}
	splitters, err = collective.Bcast(c, root, tagSplit, splitters)
	if err != nil {
		return nil, info, err
	}
	// Every rank saw every probe broadcast, so the round and probe
	// counts already agree; the root's one private verdict — whether
	// every splitter met its window — rides with the round count.
	rv, err := collective.Bcast(c, root, tagInfo, []int64{int64(info.Rounds), finalized})
	if err != nil {
		return nil, info, err
	}
	info.Finalized = rv[1] == 1
	// The one-time validation that lets exchange.Partition skip its
	// per-call O(B) re-check.
	exchange.ValidateSplitters(splitters, opt.Cmp)
	return splitters, info, nil
}

// synthesizeProbes emits the next round's probe keys, or nil when every
// splitter search has converged.
func synthesizeProbes[K any](searches []splitterSearch, tracker *histogram.Tracker[K], opt Options[K]) []K {
	var codes []uint64
	for i := range searches {
		s := &searches[i]
		if s.done || tracker.Finalized(i) {
			continue
		}
		span := s.hi - s.lo
		parts := uint64(opt.ProbesPerSplitter + 1)
		if span == 0 {
			// Code space exhausted (duplicate-heavy data): accept the
			// candidate.
			s.done = true
			continue
		}
		for j := uint64(1); j <= uint64(opt.ProbesPerSplitter); j++ {
			step := span / parts * j
			if step == 0 {
				step = j // degenerate tiny interval: distinct nudges
			}
			code := s.lo + step
			if code > s.hi {
				code = s.hi
			}
			codes = append(codes, code)
		}
	}
	if len(codes) == 0 {
		return nil
	}
	slices.Sort(codes)
	codes = slices.Compact(codes)
	probes := make([]K, len(codes))
	for i, cd := range codes {
		probes[i] = opt.Coder.Decode(cd)
	}
	// Decoding can introduce comparator-level duplicates; compact again.
	probes = slices.CompactFunc(probes, func(a, b K) bool { return opt.Cmp(a, b) == 0 })
	return probes
}

// narrow shrinks each splitter's code interval using the round's global
// ranks, the key-space analogue of the tracker's rank bounds.
func narrow[K any](searches []splitterSearch, tracker *histogram.Tracker[K], probes []K, ranks []int64, opt Options[K]) {
	for i := range searches {
		s := &searches[i]
		if s.done || tracker.Finalized(i) {
			if tracker.Finalized(i) {
				s.done = true
			}
			continue
		}
		target := tracker.Target(i)
		for j, q := range probes {
			code := opt.Coder.Encode(q)
			if code < s.lo || code > s.hi {
				continue
			}
			if ranks[j] < target {
				if code+1 > s.lo {
					s.lo = code + 1
				}
			} else if ranks[j] > target {
				if code == 0 {
					s.done = true
					break
				}
				if code-1 < s.hi {
					s.hi = code - 1
				}
			}
		}
		if s.lo > s.hi {
			s.done = true
		}
	}
}
