package core

import (
	"fmt"
	"time"

	"hssort/internal/codes"
	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/exchange"
	"hssort/internal/histogram"
	"hssort/internal/par"
	"hssort/internal/spill"
)

// Determiner is the one thing a splitter-based algorithm supplies to the
// pipeline: given this rank's locally sorted view and the global key
// count n, it returns the Buckets-1 splitters — identical on every rank,
// in non-decreasing order — and the protocol's statistics. It may use
// the SplitterTags tags from SplitterTag. HSS (Options.Determine),
// sample sort, classic histogram sort and NodeHSS each provide one.
type Determiner[E any] func(c *comm.Comm, sorted []E, n int64) ([]E, SplitterInfo, error)

// Plane is a key plane: how a rank sorts its keys K, the sorted view E
// splitter determination reads, how injected splitters project into
// that view, how view splitters cut the keys into bucket runs, and
// whether the merges must tie-break equal codes. KeyPlane covers the
// comparator, decorated and bijective planes (E = K); PrefixPlane runs
// determination over non-injective prefix codes (E = codes.Code).
type Plane[K, E any] struct {
	cmp  func(K, K) int // key order
	code func(K) uint64 // order-preserving decoration; nil on the comparator plane
	tie  bool           // code is non-injective: merges resolve equal codes with cmp

	sort    func(local []K, sp *spill.Manager, pool *par.Pool) (view []E, cs []codes.Code, collisions int64, err error)
	inject  func(splitters []K) []E
	cut     func(local []K, cs []codes.Code, splitters []E, pool *par.Pool) [][]K
	viewCmp func(E, E) int
}

// KeyPlane is the plane whose determination view is the sorted keys
// themselves. With code nil it is the comparator plane; with code set
// the local sort radix-sorts a code decoration (records in tow) and
// partition cuts run on the code array — the decorated plane, and with
// K = codes.Code and codes.ExtractCode the bijective plane. Over a
// memory budget the local sort runs spill.LocalSort's segment-at-a-time
// path with identical output.
func KeyPlane[K any](cmp func(K, K) int, code func(K) uint64) Plane[K, K] {
	return Plane[K, K]{
		cmp:     cmp,
		code:    code,
		viewCmp: cmp,
		sort: func(local []K, sp *spill.Manager, pool *par.Pool) ([]K, []codes.Code, int64, error) {
			cs, err := spill.LocalSort(sp, local, code, cmp, pool)
			return local, cs, 0, err
		},
		inject: func(splitters []K) []K { return splitters },
		cut: func(local []K, cs []codes.Code, splitters []K, pool *par.Pool) [][]K {
			if cs != nil {
				return exchange.PartitionByCodePar(local, cs, codes.Extract(splitters, code), pool)
			}
			return exchange.PartitionPar(local, splitters, cmp, pool)
		},
	}
}

// PrefixPlane is the plane for a non-injective order-preserving prefix
// code (cmp(a, b) < 0 ⟹ code(a) <= code(b); variable-length byte keys
// truncated to 8 bytes). Every code-keyed kernel runs as on the
// decorated plane, with a comparator tie-break exactly where distinct
// keys can collide on a code: after the radix local sort and inside the
// merges. Partition needs no repair — lower-bound code cuts keep every
// occurrence of a code in one bucket. Determination runs entirely over
// the sorted codes, so splitter traffic stays fixed-size whatever the
// key length, and on adversarial shared-prefix input the protocol
// saturates (SplitterInfo.Finalized false) instead of looping. Injected
// splitters project to their codes, which is exact: a splitter's code
// is a pure function of the key. The prefix plane never spills.
func PrefixPlane[K any](cmp func(K, K) int, code func(K) uint64) Plane[K, codes.Code] {
	return Plane[K, codes.Code]{
		cmp:     cmp,
		code:    code,
		tie:     true,
		viewCmp: codes.Compare,
		sort: func(local []K, _ *spill.Manager, pool *par.Pool) ([]codes.Code, []codes.Code, int64, error) {
			cs := codes.SortByCodePar(local, code, pool)
			return cs, cs, codes.TieBreakPar(cs, local, cmp, pool), nil
		},
		inject: func(splitters []K) []codes.Code { return codes.Extract(splitters, code) },
		cut: func(local []K, cs []codes.Code, splitters []codes.Code, pool *par.Pool) [][]K {
			return exchange.PartitionByCodePar(local, cs, splitters, pool)
		},
	}
}

// Pipeline configures the algorithm-independent part of a sort. The
// zero value is a flat, in-memory, serial sort into one bucket per rank.
// Every rank must pass the same Pipeline (Scratch and Spill are
// per-rank state, but their presence must agree).
type Pipeline[K any] struct {
	// Buckets is the number of output ranges B the splitters delimit.
	// Default: world size. Must agree with the Determiner's bucket
	// count.
	Buckets int
	// Owner maps a bucket to the rank that receives it. Default:
	// exchange.ContiguousOwner(Buckets, p).
	Owner func(bucket int) int
	// ChunkKeys, when positive, selects the streaming chunked exchange:
	// bucket payloads move in ChunkKeys-sized chunks interleaved across
	// destinations and the k-way merge runs incrementally as chunks
	// arrive, overlapping the exchange tail (§6.2) with bounded peak
	// memory. 0 (the default) selects the materializing exchange.
	ChunkKeys int
	// Workers is this rank's compute-phase worker budget: the radix
	// local sort, partition scans and off-overlap merges fan over a
	// par.Pool of this size. <= 1 (the default) runs every kernel
	// serially; output is identical for every budget.
	Workers int
	// Splitters, when non-nil, injects pre-determined splitters (a
	// stored plan) and skips splitter determination: the sort goes
	// straight to partition → exchange → merge with Stats.Rounds = 0.
	// The slice must hold Buckets-1 keys in non-decreasing order,
	// identical on every rank; Run validates once and panics otherwise,
	// mirroring exchange.Partition's validate-at-determination contract.
	Splitters []K
	// StaleBound, with injected Splitters, arms the staleness guard:
	// after partitioning, the ranks all-reduce the per-bucket loads and,
	// if the observed bucket imbalance max·B/N exceeds StaleBound, throw
	// the stale plan away and run the Determiner (Stats.Replanned
	// reports it). The guard costs one B-length reduction per sort. 0
	// disables it. A natural setting is (1+ε)·slack, e.g. 1.5·(1+ε).
	StaleBound float64
	// Scratch, when non-nil, is this rank's reusable exchange state; a
	// long-lived engine passes the same Scratch on every call (see
	// exchange.Scratch). Each rank needs its own.
	Scratch *exchange.Scratch[K]
	// Spill, when non-nil, is this rank's out-of-core manager: the local
	// sort runs spill.LocalSort against its budget and the exchange's
	// receive path diverts over-budget streams to compressed run files
	// (see spill.Manager). nil keeps every phase fully in memory.
	Spill *spill.Manager
	// Route, when non-nil, replaces the flat exchange + merge (NodeHSS's
	// two-level combine/exchange/scatter).
	Route Route[K]
}

// withDefaults validates the pipeline and fills defaults for a world of
// p ranks.
func (o Pipeline[K]) withDefaults(p int) (Pipeline[K], error) {
	if o.Buckets == 0 {
		o.Buckets = p
	}
	if o.Buckets < 1 {
		return o, fmt.Errorf("core: Buckets %d < 1", o.Buckets)
	}
	if o.Owner == nil {
		o.Owner = exchange.ContiguousOwner(o.Buckets, p)
	}
	if o.ChunkKeys < 0 {
		return o, fmt.Errorf("core: ChunkKeys %d < 0", o.ChunkKeys)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.StaleBound < 0 {
		return o, fmt.Errorf("core: StaleBound %v < 0", o.StaleBound)
	}
	if o.Splitters != nil && len(o.Splitters) != o.Buckets-1 {
		return o, fmt.Errorf("core: %d injected splitters for %d buckets (want %d)", len(o.Splitters), o.Buckets, o.Buckets-1)
	}
	if o.Route == nil {
		o.Route = flatRoute[K]
	}
	return o, nil
}

// Route is a sort's data-movement phase: it delivers this rank's
// partitioned runs (runs[b] holds the rank's keys for bucket b) and
// returns the rank's merged output. It may use the RouteTags tags from
// RouteTag.
type Route[K any] func(c *comm.Comm, runs [][]K, env RouteEnv[K]) (Moved[K], error)

// Moved is a Route's outcome on one rank.
type Moved[K any] struct {
	// Out is the rank's merged output.
	Out []K
	// Exchange and Merge are the data-movement and merge wall times;
	// ExchangeBytes is what the rank sent moving data.
	Exchange, Merge time.Duration
	ExchangeBytes   int64
	// Stream reports the streaming exchange's overlap and peak buffer.
	Stream exchange.StreamStats
}

// RouteEnv is what the driver hands a Route: the bucket placement and
// the merge configuration of the key plane and pipeline.
type RouteEnv[K any] struct {
	// Owner maps buckets to ranks (Pipeline.Owner).
	Owner func(bucket int) int
	// Cmp and Code are the key plane's.
	Cmp  func(K, K) int
	Code func(K) uint64
	// Stream carries the chunk size, worker pool, tie-break flag and
	// spill manager.
	Stream exchange.StreamOptions
	// Scratch is the rank's reusable exchange state (may be nil).
	Scratch *exchange.Scratch[K]
}

// ExchangeMerge runs the fused exchange + k-way merge over endpoint e
// with the environment's merge configuration (see
// exchange.ExchangeMerge).
func (r RouteEnv[K]) ExchangeMerge(e comm.StreamEndpoint, tag comm.Tag, runs [][]K, owner func(int) int) (m Moved[K], err error) {
	m.Out, m.Exchange, m.Merge, m.Stream, err = exchange.ExchangeMerge(e, tag, runs, owner, r.Cmp, r.Code, r.Stream, r.Scratch)
	return m, err
}

// flatRoute is the default Route: one all-to-all exchange to the bucket
// owners and a k-way merge — materializing, or streamed and overlapped
// with the merge when Pipeline.ChunkKeys is set.
func flatRoute[K any](c *comm.Comm, runs [][]K, env RouteEnv[K]) (Moved[K], error) {
	b0 := c.Counters().BytesSent
	m, err := env.ExchangeMerge(c, RouteTag, runs, env.Owner)
	m.ExchangeBytes = c.Counters().BytesSent - b0
	return m, err
}

// frontHalf is one rank's state after the local sort and global
// count.
type frontHalf[E any] struct {
	view       []E          // what determination reads
	cs         []codes.Code // partition cuts' code array (nil on the comparator plane)
	collisions int64        // prefix-plane tie-break keys
	n          int64        // global key count
	localSort  time.Duration
}

// front runs the local sort (phase 1, embarrassingly parallel) and the
// global key count all-reduce.
func (pl Plane[K, E]) front(c *comm.Comm, local []K, sp *spill.Manager, pool *par.Pool) (frontHalf[E], error) {
	var f frontHalf[E]
	if pl.cmp == nil {
		return f, fmt.Errorf("core: a comparator is required")
	}
	t0 := time.Now()
	var err error
	f.view, f.cs, f.collisions, err = pl.sort(local, sp, pool)
	if err != nil {
		return f, err
	}
	f.localSort = time.Since(t0)
	nVec, err := collective.AllReduce(c, tagCount, []int64{int64(len(local))}, collective.SumInt64)
	if err != nil {
		return f, err
	}
	f.n = nVec[0]
	return f, nil
}

// Run is the sort pipeline every splitter-based algorithm shares (§6.1.2):
// local sort → global count → splitter determination by det (or the
// injected plan, checked by the staleness guard) → partition → the
// route's exchange and k-way merge → stats all-reduce. It returns this
// rank's globally sorted partition. Every rank of the world must call
// Run with the same plane, pipeline and determiner. The input slice is
// sorted in place and its storage re-used; callers must not reuse it.
func Run[K, E any](c *comm.Comm, local []K, plane Plane[K, E], pipe Pipeline[K], det Determiner[E]) ([]K, Stats, error) {
	pipe, err := pipe.withDefaults(c.Size())
	if err != nil {
		return nil, Stats{}, err
	}
	pool := par.New(pipe.Workers)
	stats := Stats{Buckets: pipe.Buckets, Workers: pool.Workers()}

	f, err := plane.front(c, local, pipe.Spill, pool)
	if err != nil {
		return nil, stats, err
	}
	stats.N = f.n
	determine := func() ([]E, error) {
		sp, info, err := det(c, f.view, f.n)
		stats.Rounds = info.Rounds
		stats.SamplePerRound = info.SamplePerRound
		stats.TotalSample = info.TotalSample
		return sp, err
	}

	// Phase 2: splitter determination — skipped entirely when a stored
	// plan injects the splitters (the prepare-once/sort-many operation
	// phase). Injected splitters cross an API boundary: re-establish the
	// sorted invariant partition relies on, once per sort.
	bytes0 := c.Counters().BytesSent
	t1 := time.Now()
	var splitters []E
	if pipe.Splitters != nil {
		splitters = plane.inject(pipe.Splitters)
		exchange.ValidateSplitters(splitters, plane.viewCmp)
	} else if splitters, err = determine(); err != nil {
		return nil, stats, err
	}
	splitterTime := time.Since(t1)

	t2 := time.Now()
	runs := plane.cut(local, f.cs, splitters, pool)
	partitionTime := time.Since(t2)

	// Staleness guard: a stored plan is only as good as the distribution
	// it was determined on. When armed, measure the bucket imbalance
	// the stale splitters would produce and re-determine if it exceeds
	// the bound. The guard (and any replan) is splitter-determination
	// work.
	if pipe.Splitters != nil && pipe.StaleBound > 0 {
		t3 := time.Now()
		imb, _, err := exchange.RunsImbalance(c, tagStale, runs)
		if err != nil {
			return nil, stats, err
		}
		if imb > pipe.StaleBound {
			stats.Replanned = true
			if splitters, err = determine(); err != nil {
				return nil, stats, err
			}
			runs = plane.cut(local, f.cs, splitters, pool)
		}
		splitterTime += time.Since(t3)
	}
	splitterBytes := c.Counters().BytesSent - bytes0

	// Phase 3+4: data movement and k-way merge.
	moved, err := pipe.Route(c, runs, RouteEnv[K]{
		Owner:   pipe.Owner,
		Cmp:     plane.cmp,
		Code:    plane.code,
		Stream:  exchange.StreamOptions{ChunkKeys: pipe.ChunkKeys, Pool: pool, Tie: plane.tie, Spill: pipe.Spill},
		Scratch: pipe.Scratch,
	})
	if err != nil {
		return nil, stats, err
	}
	stats.LocalCount = len(moved.Out)

	pc := pool.Counters()
	if err := FinishStats(c, tagStats, &stats, PhaseTimes{
		SplitterBytes:    splitterBytes,
		ExchangeBytes:    moved.ExchangeBytes,
		LocalSort:        f.localSort,
		Splitter:         splitterTime,
		Exchange:         partitionTime + moved.Exchange,
		Merge:            moved.Merge,
		Overlap:          moved.Stream.Overlap,
		PeakInFlight:     moved.Stream.PeakInFlight,
		OutCount:         len(moved.Out),
		ParSpawned:       pc.Spawned,
		ParTasks:         pc.Tasks,
		PrefixCollisions: f.collisions,
		Spill:            pipe.Spill.TakeStats(),
	}); err != nil {
		return nil, stats, err
	}
	return moved.Out, stats, nil
}

// PlanResult is the outcome of Plan, identical on every rank.
type PlanResult[E any] struct {
	// Splitters are the determined splitters in the plane's view.
	Splitters []E
	// N is the global key count.
	N int64
	// Info describes the determination protocol.
	Info SplitterInfo
	// AchievedEpsilon is the largest bucket's load relative to the even
	// share N/B, minus 1, measured exactly on the planning input.
	AchievedEpsilon float64
}

// Plan runs only the front half of Run — the same local sort, global
// count and determiner — and then measures the splitters' exact quality
// on the planning input with one more histogram round over the view.
// local is sorted in place (callers pass a copy), never spills, and
// workers sizes the local sort's pool. Every rank receives the same
// result.
func Plan[K, E any](c *comm.Comm, local []K, plane Plane[K, E], workers int, det Determiner[E]) (PlanResult[E], error) {
	f, err := plane.front(c, local, nil, par.New(workers))
	if err != nil {
		return PlanResult[E]{}, err
	}
	sp, info, err := det(c, f.view, f.n)
	if err != nil {
		return PlanResult[E]{}, err
	}
	global, err := collective.AllReduce(c, tagStale, histogram.LocalRanks(f.view, sp, plane.viewCmp), collective.SumInt64)
	if err != nil {
		return PlanResult[E]{}, err
	}
	var maxLoad, prev int64
	for _, rk := range global {
		maxLoad = max(maxLoad, rk-prev)
		prev = rk
	}
	maxLoad = max(maxLoad, f.n-prev)
	res := PlanResult[E]{Splitters: sp, N: f.n, Info: info}
	if f.n > 0 {
		res.AchievedEpsilon = float64(maxLoad)*float64(len(sp)+1)/float64(f.n) - 1
	}
	return res, nil
}
