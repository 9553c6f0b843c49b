package nodesort

import (
	"fmt"
	"time"

	"hssort/internal/collective"
	"hssort/internal/comm"
	"hssort/internal/core"
	"hssort/internal/exchange"
	"hssort/internal/merge"
)

// Options configures NodeHSS's node-level splitter determination — its
// Determiner (Options.Determine). NodeHSS also replaces the flat
// exchange with its two-level Route; everything else is the shared
// pipeline driver's (core.Run). Cmp and CoresPerNode are required.
type Options[K any] struct {
	// Cmp is the three-way key comparator.
	Cmp func(K, K) int
	// CoresPerNode is the node width c; the world size must be a
	// multiple of c.
	CoresPerNode int
	// Epsilon is the node-level imbalance threshold (the paper uses
	// 0.02 for node-level partitioning). Default 0.02.
	Epsilon float64
	// Schedule, Seed, OversampleFactor configure the node-level HSS
	// splitter determination (see core.Options).
	Schedule         core.Schedule
	Seed             uint64
	OversampleFactor float64
}

// Determine is NodeHSS's Determiner: HSS over node-count buckets. All p
// ranks participate, but only n-1 splitters are sought (§6.1: "data
// partitioning needs to be only across physical nodes"); the pipeline
// must run with Buckets = p/CoresPerNode.
func (o Options[K]) Determine(c *comm.Comm, local []K, n int64) ([]K, core.SplitterInfo, error) {
	p := c.Size()
	if o.CoresPerNode < 1 {
		return nil, core.SplitterInfo{}, fmt.Errorf("nodesort: CoresPerNode %d < 1", o.CoresPerNode)
	}
	if p%o.CoresPerNode != 0 {
		return nil, core.SplitterInfo{}, fmt.Errorf("nodesort: world size %d not a multiple of CoresPerNode %d", p, o.CoresPerNode)
	}
	eps := o.Epsilon
	if eps == 0 {
		eps = 0.02
	}
	return core.Options[K]{
		Cmp:              o.Cmp,
		Epsilon:          eps,
		Buckets:          p / o.CoresPerNode,
		Schedule:         o.Schedule,
		Seed:             o.Seed,
		OversampleFactor: o.OversampleFactor,
	}.Determine(c, local, n)
}

// Route tags, within the pipeline's route range.
const (
	tagCombine = core.RouteTag     // intra-node run gather
	tagNodeEx  = core.RouteTag + 1 // node-to-node exchange
	tagScatter = core.RouteTag + 2 // within-node scatter
)

// Route returns NodeHSS's two-level data movement for nodes of cores
// consecutive ranks, in place of the flat exchange: every
// core hands its per-node runs to its node leader, the leaders combine
// them and exchange n(n-1) node-to-node messages, and each leader cuts
// its merged node bucket into exact per-core quantiles and scatters
// them back. Rank order is global order.
func Route[K any](cores int) core.Route[K] {
	return func(c *comm.Comm, runs [][]K, env core.RouteEnv[K]) (core.Moved[K], error) {
		var m core.Moved[K]
		nodes := c.Size() / cores
		leaderRank := c.Rank() / cores * cores
		isLeader := c.Rank() == leaderRank
		pool := env.Stream.Pool

		// Build this node's group; node g occupies ranks [g·c, (g+1)·c).
		members := make([]int, cores)
		for i := range members {
			members[i] = leaderRank + i
		}
		group, err := collective.NewGroup(c, members)
		if err != nil {
			return m, err
		}

		// Message combining (§6.1): every core hands its n partitioned
		// runs to the node leader by reference (shared memory), so the
		// network sees nothing yet.
		t0 := time.Now()
		b0 := c.Counters().BytesSent
		gathered, err := collective.Gatherv(group, 0, tagCombine, runs)
		if err != nil {
			return m, err
		}

		// Node-to-node exchange: leaders merge their cores' runs per
		// destination node and exchange n(n-1) combined messages —
		// materialized, or streamed in chunks overlapped with the
		// node-level merge when the pipeline streams. The combine and
		// node-level merges tie-break equal codes on the prefix plane.
		var node core.Moved[K]
		if isLeader {
			var tie func(K, K) int
			if env.Stream.Tie {
				tie = env.Cmp
			}
			combined := make([][]K, nodes)
			for dst := range combined {
				perCore := make([][]K, 0, cores)
				for _, coreRuns := range gathered {
					if dst < len(coreRuns) { // empty input determines no splitters: one run
						perCore = append(perCore, coreRuns[dst])
					}
				}
				switch {
				case env.Code != nil && pool.Workers() > 1:
					combined[dst] = merge.ParMergeByCodeTie(nil, perCore, env.Code, tie, pool)
				case env.Code != nil:
					combined[dst] = merge.KWayByCodeTie(perCore, env.Code, tie)
				case pool.Workers() > 1:
					combined[dst] = merge.ParMerge(nil, perCore, env.Cmp, pool)
				default:
					combined[dst] = merge.KWay(perCore, env.Cmp)
				}
			}
			leaders := make([]int, nodes)
			for g := range leaders {
				leaders[g] = g * cores
			}
			leaderGroup, err := collective.NewGroup(c, leaders)
			if err != nil {
				return m, err
			}
			node, err = env.ExchangeMerge(leaderGroup, tagNodeEx, combined, exchange.ContiguousOwner(nodes, nodes))
			if err != nil {
				return m, err
			}
		}
		m.Exchange = time.Since(t0) - node.Merge
		m.ExchangeBytes = c.Counters().BytesSent - b0
		m.Stream = node.Stream

		// Final within-node sorting (§6.1): the leader has its node's
		// bucket assembled, cuts exact per-core quantiles (the
		// shared-memory limit of regular sampling), and scatters the
		// pieces back to its cores.
		t1 := time.Now()
		var parts [][]K
		if isLeader {
			parts = make([][]K, cores)
			for i := range parts {
				parts[i] = node.Out[i*len(node.Out)/cores : (i+1)*len(node.Out)/cores]
			}
		}
		m.Out, err = collective.Scatterv(group, 0, tagScatter, parts)
		m.Merge = node.Merge + time.Since(t1)
		return m, err
	}
}
