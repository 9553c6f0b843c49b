package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"time"

	"hssort"
	"hssort/internal/bspmodel"
	"hssort/internal/codes"
	"hssort/internal/exchange"
	"hssort/internal/histogram"
	"hssort/internal/keycoder"
	"hssort/internal/merge"
	"hssort/internal/par"
	"hssort/internal/spill"
)

// eps is the load-imbalance threshold every workload sorts with.
const eps = 0.05

// setupReps is how many times a run constructs its engine and sorts
// once untimed; setup_s is the median.
const setupReps = 15

// keySpan bounds the generated keys to [0, keySpan).
const keySpan = 1 << 60

// shape is one in-process workload: an engine configuration and the
// distribution its inputs are drawn from.
type shape struct {
	name      string
	procs     int
	perRank   int
	transport hssort.Transport
	draw      func(rng *rand.Rand) int64
	spill     bool // run with MemoryBudget at half of one shard's bytes
}

var (
	bulkShape  = shape{name: "bulk", procs: 4, perRank: 250_000, transport: hssort.TransportInproc, draw: gaussian}
	wideShape  = shape{name: "wide", procs: 64, perRank: 2_000, transport: hssort.TransportSim, draw: powerSkew}
	spillShape = shape{name: "spill", procs: 4, perRank: 200_000, transport: hssort.TransportInproc, draw: gaussian, spill: true}
)

// gaussian centres keys in the key span with σ = span/8.
func gaussian(rng *rand.Rand) int64 {
	v := keySpan/2 + rng.NormFloat64()*keySpan/8
	return int64(math.Min(math.Max(v, 0), keySpan-1))
}

// powerSkew maps uniform draws through u^4: most keys pile up near 0.
func powerSkew(rng *rand.Rand) int64 {
	u := rng.Float64()
	return int64(u * u * u * u * (keySpan - 1))
}

// input holds one op's generated keys. orig keeps the draw; shards is
// the copy handed to the engine, refilled before every call because a
// sort may consume its input.
type input struct {
	sh     shape
	orig   [][]int64
	shards [][]int64
	fp     fingerprint
}

func newInput(sh shape) *input {
	in := &input{sh: sh, orig: make([][]int64, sh.procs), shards: make([][]int64, sh.procs)}
	for r := range in.orig {
		in.orig[r] = make([]int64, sh.perRank)
	}
	return in
}

// draw fills the input for op deterministically from seed.
func (in *input) draw(seed, op uint64) {
	rng := rand.New(rand.NewPCG(seed, op))
	for _, s := range in.orig {
		for i := range s {
			s[i] = in.sh.draw(rng)
		}
	}
	in.fp = fingerprintOf(in.orig)
}

// fresh returns the engine's copy of the drawn input.
func (in *input) fresh() [][]int64 {
	for r, s := range in.orig {
		in.shards[r] = append(in.shards[r][:0], s...)
	}
	return in.shards
}

// setupOp numbers the set-up sorts apart from the timed ones.
const setupOp = 1 << 32

func runInproc(o options, sh shape) (*report, error) {
	n := int64(sh.procs * sh.perRank)
	rep := &report{keysPerOp: n, bytesPerOp: 8 * n}
	cfg := hssort.Config{Procs: sh.procs, Transport: sh.transport, Epsilon: eps}
	if sh.spill {
		dir := filepath.Join(o.out, "spill-"+strconv.Itoa(os.Getpid()))
		defer os.RemoveAll(dir)
		cfg.MemoryBudget = int64(sh.perRank) * 8 / 2
		cfg.SpillDir = dir
	}
	ctx := context.Background()
	in := newInput(sh)

	// Fail before any work if the per-op peak cannot be measured here.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}

	// Set-up: engine construction through the first, untimed sort.
	var setups []float64
	var s *hssort.Sorter[int64]
	for i := range setupReps {
		in.draw(o.seed, setupOp+uint64(i))
		shards := in.fresh()
		t0 := time.Now()
		eng, err := hssort.New[int64](cfg)
		if err != nil {
			return nil, fmt.Errorf("new engine: %w", err)
		}
		out, _, err := eng.Sort(ctx, shards)
		setups = append(setups, time.Since(t0).Seconds())
		rep.attempted++
		checkSort(rep, "setup", out, err, in.fp)
		if i < setupReps-1 {
			eng.Close()
		} else {
			s = eng
		}
	}
	defer s.Close()

	timed := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		loop := timeLoop(rep, s, in, o.seed, timed)
		rep.ops = int64(len(loop.lat))
		latencyMetrics(rep, loop.lat)
		rep.set("mkeys_per_s", windowedThroughput(float64(n), loop.lat), "Mkeys/s", len(loop.lat))
		rep.set("imbalance_max", loop.imbMax, "ratio", len(loop.lat))
		rep.set("peak_rss_mib", median(loop.rss), "MiB", len(loop.rss))
		rep.set("setup_s", median(setups), "s", len(setups))
		return rep, nil
	}

	// Traced run: even ops run untraced, odd ops traced, so that the
	// tracing overhead compares ops made under the same host conditions.
	tr := newTracer(true)
	k, err := newKernels(o, sh)
	if err != nil {
		return nil, err
	}
	defer k.close()
	ser := series{}
	var base loopResult
	deadline := time.Now().Add(timed)
	for op := uint64(0); time.Now().Before(deadline); op++ {
		in.draw(o.seed, op)
		if op%2 == 0 {
			base.add(untracedOp(rep, s, in, op))
		} else {
			tracedOp(rep, tr, s, in, k, ser, int64(op))
		}
		rep.ops++
	}
	ser.report(rep, o.units)
	rep.set("trace.untraced_latency_p50_ms", median(base.lat), "ms", len(base.lat))
	traced := ser["trace.latency_p50_ms"]
	rep.set("trace.overhead_frac", ratio(median(traced), median(base.lat))-1, "ratio", len(traced))
	rep.set("splitter.optimal_rounds", bspmodel.OptimalRounds(sh.procs, eps), "count", 1)
	rep.set("splitter.sample_bound_keys", bspmodel.SampleSizeHSSConstant(sh.procs, eps), "keys", 1)
	zero(rep, serverMetrics, o.units)
	if !sh.spill {
		zero(rep, spillMetrics, o.units)
	}
	printPaperBound(rep, sh.procs)
	if err := tr.write(filepath.Join(o.out, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed))); err != nil {
		return nil, err
	}
	tr.printSelfTimes(os.Stdout)
	return rep, nil
}

// throughputWindows is how many consecutive windows of ops a run's
// throughput is measured over.
const throughputWindows = 9

// windowedThroughput is the throughput of one caller's closed loop, in
// Mkeys/s: the timed ops are cut into consecutive windows of equal op
// count, each window's throughput is its keys over the summed time of
// its ops, and the median window is reported. Every slow op (a GC
// pause, an outlier) counts in its window's throughput; a burst of
// host CPU steal that spoils one window does not decide the run.
func windowedThroughput(keysPerOp float64, lat []float64) float64 {
	var tps []float64
	for w := range throughputWindows {
		ops := lat[w*len(lat)/throughputWindows : (w+1)*len(lat)/throughputWindows]
		var sum float64
		for _, l := range ops {
			sum += l
		}
		if sum > 0 {
			tps = append(tps, keysPerOp*float64(len(ops))/(sum/1e3)/1e6)
		}
	}
	return median(tps)
}

// loopResult is what an untraced closed loop measured.
type loopResult struct {
	lat    []float64 // per-op latency, ms
	rss    []float64 // per-op peak resident set, MiB
	imbMax float64
}

// opResult is one untraced op's measurements.
type opResult struct {
	lat time.Duration
	rss float64 // peak resident set during the op, MiB
	imb float64
}

func (r *loopResult) add(op opResult) {
	r.lat = append(r.lat, ms(op.lat))
	r.rss = append(r.rss, op.rss)
	r.imbMax = max(r.imbMax, op.imb)
}

// timeLoop runs one caller's closed loop of Sort calls for d, each on
// a fresh draw.
func timeLoop(rep *report, s *hssort.Sorter[int64], in *input, seed uint64, d time.Duration) loopResult {
	var res loopResult
	deadline := time.Now().Add(d)
	for op := uint64(0); time.Now().Before(deadline); op++ {
		in.draw(seed, op)
		res.add(untracedOp(rep, s, in, op))
	}
	return res
}

// untracedOp sorts the drawn input, timing only the Sort call and
// checking its output afterwards.
func untracedOp(rep *report, s *hssort.Sorter[int64], in *input, op uint64) opResult {
	shards := in.fresh()
	if err := resetPeakRSS(); err != nil {
		rep.fail("op %d: %v", op, err)
	}
	t0 := time.Now()
	out, st, err := s.Sort(context.Background(), shards)
	el := time.Since(t0)
	rss, rssErr := peakRSSMiB("self")
	if rssErr != nil {
		rep.fail("op %d: %v", op, rssErr)
	}
	rep.attempted++
	checkSort(rep, fmt.Sprintf("op %d", op), out, err, in.fp)
	return opResult{lat: el, rss: rss, imb: st.Imbalance}
}

func checkSort(rep *report, what string, out [][]int64, err error, want fingerprint) {
	if err == nil {
		err = verify(out, want)
	}
	if err != nil {
		rep.fail("%s: %v", what, err)
	}
}

// kernels holds the reusable buffers for the per-layer kernel calls a
// traced op makes on rank 0's shard.
type kernels struct {
	sh      shape
	rng     *rand.Rand
	enc     []codes.Code
	runs    [][]int64
	dst     []int64
	spillIn []int64
	flat    []int64
	mgr     *spill.Manager // nil unless the shape spills
	mgrDir  string
}

func newKernels(o options, sh shape) (*kernels, error) {
	k := &kernels{sh: sh, rng: rand.New(rand.NewPCG(o.seed, 0x6b65726e656c))}
	if sh.spill {
		k.mgrDir = filepath.Join(o.out, "kernel-spill-"+strconv.Itoa(os.Getpid()))
		m, err := spill.NewManager(int64(sh.perRank)*8/2, k.mgrDir, 0)
		if err != nil {
			return nil, err
		}
		k.mgr = m
	}
	return k, nil
}

func (k *kernels) close() {
	if k.mgr != nil {
		k.mgr.Close()
		os.RemoveAll(k.mgrDir)
	}
}

func int64Code(x int64) uint64 { return keycoder.Int64{}.Encode(x) }

// tracedOp is one op of the traced run, every call inside its own
// span: the end-to-end Sort, each layer's exported kernel on rank 0's
// shard, then the same input through Plan and SortWithPlan.
func tracedOp(rep *report, tr *tracer, s *hssort.Sorter[int64], in *input, k *kernels, ser series, op int64) {
	ctx := context.Background()
	p := k.sh.procs
	n := float64(p * k.sh.perRank)
	tr.do("op", op, 0, func(root int64) {
		var m0, m1 runtime.MemStats
		var out [][]int64
		var st hssort.Stats
		var err error
		shards := in.fresh()
		runtime.ReadMemStats(&m0)
		d := tr.do("hssort.Sort", op, root, func(int64) { out, st, err = s.Sort(ctx, shards) })
		runtime.ReadMemStats(&m1)
		rep.attempted++
		checkSort(rep, fmt.Sprintf("traced op %d", op), out, err, in.fp)
		if err != nil {
			return
		}
		ser.add("trace.latency_p50_ms", ms(d))
		ser.add("hssort.alloc_bytes_per_key", float64(m1.TotalAlloc-m0.TotalAlloc)/n)
		ser.add("hssort.allocs_per_sort", float64(m1.Mallocs-m0.Mallocs))
		addStats(ser, st, p)

		// The kernels read out before the plan calls below may reuse
		// the engine's output buffers.
		k.run(rep, tr, ser, in, out, st, op, root)

		shards = in.fresh()
		var plan *hssort.Plan[int64]
		ser.add("hssort.plan_ms", ms(tr.do("hssort.Plan", op, root, func(int64) { plan, err = s.Plan(ctx, shards) })))
		if err != nil {
			rep.fail("traced op %d: plan: %v", op, err)
			return
		}
		shards = in.fresh()
		var planned [][]int64
		ser.add("hssort.sort_with_plan_ms", ms(tr.do("hssort.SortWithPlan", op, root, func(int64) {
			planned, _, err = s.SortWithPlan(ctx, plan, shards)
		})))
		rep.attempted++
		checkSort(rep, fmt.Sprintf("traced op %d: sort with plan", op), planned, err, in.fp)

	})
}

// run times the exported kernels of each layer on rank 0's shard,
// shaped like the engine's own calls: encode, radix sort and decode
// the codes; rank the sample probes (histogram); cut the sorted shard
// at the output's splitters (exchange); merge p interleaved runs of
// rank 0's output (merge); and, on a spilling shape, the spill-aware
// local sort. baseline.serial_sort_ms sorts the whole input on one
// core.
func (k *kernels) run(rep *report, tr *tracer, ser series, in *input, out [][]int64, st hssort.Stats, op, root int64) {
	p := k.sh.procs
	pool := par.New(st.Workers)
	local := in.orig[0]
	var cs []codes.Code
	ser.add("codes.encode_ms", ms(tr.do("codes.EncodeIntoPar", op, root, func(int64) {
		cs = codes.EncodeIntoPar(keycoder.Coder[int64](keycoder.Int64{}), local, k.enc, pool)
	})))
	k.enc = cs
	ser.add("codes.sort_ms", ms(tr.do("codes.SortPar", op, root, func(int64) { codes.SortPar(cs, pool) })))
	var dec []int64
	ser.add("codes.decode_ms", ms(tr.do("codes.DecodeSlicePar", op, root, func(int64) {
		dec = codes.DecodeSlicePar(keycoder.Coder[int64](keycoder.Int64{}), cs, pool)
	})))
	if !slices.IsSorted(dec) || len(dec) != len(local) {
		rep.fail("op %d: codes kernels did not sort rank 0's shard", op)
	}

	// Probes: as many sorted keys as the sort sampled, drawn from the
	// sorted codes.
	probes := make([]codes.Code, 0, st.TotalSample)
	for range st.TotalSample {
		probes = append(probes, cs[k.rng.IntN(len(cs))])
	}
	slices.Sort(probes)
	ser.add("histogram.local_ranks_ms", ms(tr.do("histogram.LocalRanks", op, root, func(int64) {
		histogram.LocalRanks(cs, probes, codes.Compare)
	})))

	split := make([]codes.Code, 0, p-1)
	for r := 1; r < p; r++ {
		c := codes.Code(0)
		if len(split) > 0 {
			c = split[len(split)-1]
		}
		if len(out[r]) > 0 {
			c = codes.Code(int64Code(out[r][0]))
		}
		split = append(split, c)
	}
	var parts [][]int64
	ser.add("exchange.partition_ms", ms(tr.do("exchange.PartitionByCodePar", op, root, func(int64) {
		parts = exchange.PartitionByCodePar(dec, cs, split, pool)
	})))
	if got := sumLen(parts); got != len(dec) {
		rep.fail("op %d: partition kept %d of %d keys", op, got, len(dec))
	}

	// Rank 0 receives one sorted run from every rank, each a random
	// subset of its final output: deal that output into p runs.
	if len(k.runs) != p {
		k.runs = make([][]int64, p)
	}
	for i := range k.runs {
		k.runs[i] = k.runs[i][:0]
	}
	for _, x := range out[0] {
		i := k.rng.IntN(p)
		k.runs[i] = append(k.runs[i], x)
	}
	var merged []int64
	ser.add("merge.kway_ms", ms(tr.do("merge.ParMergeByCode", op, root, func(int64) {
		merged = merge.ParMergeByCode(k.dst[:0], k.runs, int64Code, pool)
	})))
	k.dst = merged
	if !slices.Equal(merged, out[0]) {
		rep.fail("op %d: merge kernel output differs from rank 0's output", op)
	}

	if k.mgr != nil {
		k.spillIn = append(k.spillIn[:0], local...)
		var err error
		ser.add("spill.localsort_ms", ms(tr.do("spill.LocalSort", op, root, func(int64) {
			_, err = spill.LocalSort(k.mgr, k.spillIn, int64Code, cmp.Compare[int64], pool)
		})))
		k.mgr.TakeStats()
		if err != nil || !slices.IsSorted(k.spillIn) {
			rep.fail("op %d: spill.LocalSort: sorted=%v err=%v", op, slices.IsSorted(k.spillIn), err)
		}
	}

	k.flat = k.flat[:0]
	for _, s := range in.orig {
		k.flat = append(k.flat, s...)
	}
	ser.add("baseline.serial_sort_ms", ms(tr.do("baseline.slices.Sort", op, root, func(int64) { slices.Sort(k.flat) })))
}

func sumLen[T any](xs [][]T) int {
	n := 0
	for _, x := range xs {
		n += len(x)
	}
	return n
}

// addStats records the layer quantities one sort's Stats carries.
// Splitter quantities are recorded only for sorts that determined
// splitters (a plan-cache hit in the daemon runs none).
func addStats(ser series, st hssort.Stats, p int) {
	ser.add("localsort.ms", ms(st.LocalSort))
	if st.Rounds > 0 {
		ser.add("splitter.ms", ms(st.Splitter))
		ser.add("splitter.share", ratio(float64(st.Splitter), float64(st.Total())))
		ser.add("splitter.rounds", float64(st.Rounds))
		ser.add("splitter.sample_keys", float64(st.TotalSample))
		ser.add("splitter.bytes", float64(st.SplitterBytes))
		ser.add("splitter.sample_vs_bound", float64(st.TotalSample)/bspmodel.SampleSizeHSSConstant(p, eps))
	}
	ser.add("exchange.ms", ms(st.Exchange))
	ser.add("exchange.bytes", float64(st.ExchangeBytes))
	ser.add("exchange.inflight_peak_kib", float64(st.PeakInFlightBytes)/1024)
	ser.add("comm.msgs", float64(st.TotalMsgs))
	ser.add("comm.bytes_per_key", ratio(float64(st.TotalBytes), float64(st.N)))
	ser.add("merge.ms", ms(st.Merge))
	ser.add("merge.overlap_ms", ms(st.ExchangeOverlap))
	ser.add("par.tasks_per_spawn", ratio(float64(st.ParTasks), float64(st.ParSpawned)))
	ser.add("spill.written_mib", float64(st.SpilledBytes)/(1<<20))
	ser.add("spill.file_mib", float64(st.SpillFileBytes)/(1<<20))
	ser.add("spill.compression_ratio", ratio(float64(st.SpilledBytes), float64(st.SpillFileBytes)))
	ser.add("spill.reads", float64(st.SpillReads))
	ser.add("spill.resident_peak_kib", float64(st.PeakResidentBytes)/1024)
}

// printPaperBound prints the measured splitter schedule beside §3.3's
// optimal round count and sample size for the workload's (p, ε).
func printPaperBound(rep *report, p int) {
	m := rep.metrics
	fmt.Printf("# paper bound (p=%d, eps=%g): rounds %.3g vs k*=ln(ln p/eps)=%.3f; sample keys %.6g vs k*·e·p=%.1f (ratio %.3f)\n",
		p, eps, m["splitter.rounds"].value, m["splitter.optimal_rounds"].value,
		m["splitter.sample_keys"].value, m["splitter.sample_bound_keys"].value, m["splitter.sample_vs_bound"].value)
}

// series collects per-op values of the per-layer metrics.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

// report sets each series' median, in the unit BENCHMARK.json
// declares for it.
func (s series) report(rep *report, units map[string]string) {
	for name, vs := range s {
		rep.set(name, median(vs), units[name], len(vs))
	}
}

// Metrics of layers some workloads do not reach: the daemon's (only
// serve reaches it) and the spill plane's (only spill).
var (
	serverMetrics = []string{"server.sort_ms", "server.overhead_ms", "server.hit_p50_ms", "server.miss_p50_ms", "server.plan_hit_ratio", "server.replan_ratio", "server.refused"}
	spillMetrics  = []string{"spill.written_mib", "spill.file_mib", "spill.compression_ratio", "spill.reads", "spill.resident_peak_kib", "spill.localsort_ms"}
)

// zero reports metrics of layers a workload does not exercise as 0.
func zero(rep *report, names []string, units map[string]string) {
	for _, name := range names {
		if _, ok := rep.metrics[name]; !ok {
			rep.set(name, 0, units[name], 0)
		}
	}
}
