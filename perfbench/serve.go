package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"hssort"
	"hssort/internal/bspmodel"
)

const (
	serveKeys    = 50_000 // keys per job
	serveClients = 2      // closed-loop clients, one keep-alive connection each
	serveShards  = 4      // hssortd's default -shards
)

// A tenant submits keys drawn uniformly from [0, span). Tenant
// "metrics" draws narrow-range keys, which the plan cache's fingerprint
// matches job after job; tenant "ids" draws full-range keys, which it
// never matches.
type tenant struct {
	name string
	span int64
}

var (
	metrics = tenant{"metrics", 1 << 40}
	ids     = tenant{"ids", 1 << 62}
)

// tenants are the clients' tenants: client i submits every job as
// tenants[i]. Hits and misses form two latency modes, misses the slower
// (longer numbers to parse, splitters to determine), so the workload's
// latency is taken per tenant (tenantP50).
var tenants = [serveClients]tenant{metrics, ids}

// daemon is one hssortd child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	stderr lockedBuffer
	exited chan struct{} // closed once Wait returned
	err    error         // Wait's result, set before exited closes
}

// startDaemon spawns hssortd on a free loopback port, scrapes the
// address it prints and waits, through hc, for /healthz to answer 200.
func startDaemon(bin string, hc *http.Client) (*daemon, error) {
	d := &daemon{exited: make(chan struct{})}
	listening := make(chan string, 1)
	d.cmd = exec.Command(bin, "-listen", "127.0.0.1:0")
	d.cmd.Stdout = &lineWatch{prefix: "listening on ", found: listening}
	d.cmd.Stderr = &d.stderr
	// Should the benchmark itself be killed, the daemon goes with it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hssortd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.addr = <-listening:
	case <-d.exited:
		return nil, fmt.Errorf("hssortd exited before listening: %v: %s", d.err, d.stderr.String())
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, errors.New("hssortd printed no listening line within 30s")
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := hc.Get("http://" + d.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, fmt.Errorf("hssortd /healthz not ready within 30s (last error %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop sends SIGTERM and requires a clean drain: the daemon logs
// "drained, exiting" and exits 0.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signal hssortd: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("hssortd did not exit within 30s of SIGTERM")
	}
	if d.err != nil {
		return fmt.Errorf("hssortd exit: %v: %s", d.err, d.stderr.String())
	}
	if !strings.Contains(d.stderr.String(), "drained, exiting") {
		return fmt.Errorf("hssortd exited without draining: %s", d.stderr.String())
	}
	return nil
}

// kill ends the child, if still running, and waits for it.
func (d *daemon) kill() {
	select {
	case <-d.exited:
		return
	default:
	}
	d.cmd.Process.Kill()
	<-d.exited
}

// lineWatch is the child's stdout: it sends the rest of the first line
// starting with prefix to found.
type lineWatch struct {
	prefix string
	found  chan<- string
	buf    []byte
	sent   bool
}

func (w *lineWatch) Write(p []byte) (int, error) {
	if w.sent {
		return len(p), nil
	}
	w.buf = append(w.buf, p...)
	for {
		line, rest, ok := bytes.Cut(w.buf, []byte("\n"))
		if !ok {
			return len(p), nil
		}
		if addr, ok := strings.CutPrefix(string(line), w.prefix); ok {
			w.found <- strings.TrimSpace(addr)
			w.sent = true
			return len(p), nil
		}
		w.buf = rest
	}
}

type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// jobDoc is the part of hssortd's job document the benchmark reads.
type jobDoc struct {
	Status    string                `json:"status"`
	Error     string                `json:"error"`
	PlanCache string                `json:"planCache"`
	Stats     *hssort.StatsSnapshot `json:"stats"`
	Result    *struct {
		Shards [][]int64 `json:"shards"`
	} `json:"result"`
}

// job is one completed round trip as the client saw it.
type job struct {
	op        int64
	tenant    string
	lat       float64 // ms, request sent to response body read
	traced    bool
	keys      []int64 // the submitted keys, kept for traced jobs' baseline sort
	ok        bool
	refused   bool
	planCache string
	stats     *hssort.StatsSnapshot
}

// client is one closed-loop caller, one tenant's, with its own
// keep-alive connection.
type client struct {
	id     int
	tenant tenant
	base   string
	http   *http.Client
	seed   uint64
	next   uint64 // job counter
	keys   []int64
	body   []byte
}

// untraced times calls without recording spans.
var untraced = newTracer(false)

// submit draws a fresh job for the client's tenant, posts it with
// wait:true, and checks the sorted result against the submitted keys
// outside the timed span. With an enabled tracer the client's jobs
// alternate between untraced and traced (each call a span under the
// job's root span), to measure the tracing overhead under the same
// host conditions.
func (c *client) submit(rep *serveTally, tr *tracer) job {
	if c.next%2 == 0 {
		tr = untraced
	}
	op := int64(c.id)<<32 | int64(c.next)
	t := c.tenant
	rng := rand.New(rand.NewPCG(c.seed, uint64(op)))
	c.next++
	j := job{op: op, tenant: t.name, traced: tr.on}
	var doc jobDoc
	var status int
	var err error
	run := func(root int64) {
		tr.do("client.encode", op, root, func(int64) {
			c.keys = c.keys[:0]
			for range serveKeys {
				c.keys = append(c.keys, rng.Int64N(t.span))
			}
			c.body = append(c.body[:0], `{"tenant":"`...)
			c.body = append(c.body, t.name...)
			c.body = append(c.body, `","dataset":"bench","keyType":"int64","wait":true,"keys":[`...)
			for i, k := range c.keys {
				if i > 0 {
					c.body = append(c.body, ',')
				}
				c.body = strconv.AppendInt(c.body, k, 10)
			}
			c.body = append(c.body, "]}"...)
		})
		var raw []byte
		j.lat = ms(tr.do("hssortd.POST /v1/jobs", op, root, func(int64) {
			var resp *http.Response
			resp, err = c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(c.body))
			if err != nil {
				return
			}
			raw, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			status = resp.StatusCode
		}))
		if err == nil && status == http.StatusOK {
			tr.do("client.decode", op, root, func(int64) { err = json.Unmarshal(raw, &doc) })
		}
	}
	if tr.on {
		tr.do("op", op, 0, run)
		j.keys = slices.Clone(c.keys)
	} else {
		run(0)
	}
	j.refused = status == http.StatusTooManyRequests
	switch {
	case err != nil:
		rep.fail("job %d: %v", op, err)
	case status != http.StatusOK:
		rep.fail("job %d: HTTP %d", op, status)
	case doc.Status != "done" || doc.Result == nil || doc.Stats == nil:
		rep.fail("job %d: status %q: %s", op, doc.Status, doc.Error)
	default:
		want := fingerprint{}
		want.add(c.keys)
		if err := verify(doc.Result.Shards, want); err != nil {
			rep.fail("job %d: %v", op, err)
		} else {
			j.ok = true
		}
		j.planCache = doc.PlanCache
		j.stats = doc.Stats
	}
	return j
}

// serveTally is the report's failure counters, shared by the clients.
type serveTally struct {
	mu  sync.Mutex
	rep *report
}

func (t *serveTally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rep.fail(format, args...)
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serveClients,
		MaxIdleConnsPerHost: serveClients,
		DisableCompression:  true,
	}}
}

// loop runs the closed-loop clients against d for dur and returns
// every job and the loop's wall time.
func loop(tally *serveTally, d *daemon, hc *http.Client, seed uint64, dur time.Duration, tr *tracer) ([]job, time.Duration) {
	deadline := time.Now().Add(dur)
	per := make([][]job, serveClients)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range serveClients {
		c := &client{id: i, tenant: tenants[i], base: "http://" + d.addr, http: hc, seed: seed}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				per[i] = append(per[i], c.submit(tally, tr))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var all []job
	for _, js := range per {
		all = append(all, js...)
	}
	tally.mu.Lock()
	tally.rep.attempted += int64(len(all))
	tally.mu.Unlock()
	return all, wall
}

func runServe(o options) (*report, error) {
	if o.hssortd == "" {
		return nil, errors.New("serve needs -hssortd (the prebuilt daemon binary)")
	}
	rep := &report{keysPerOp: serveKeys, bytesPerOp: 8 * serveKeys}
	tally := &serveTally{rep: rep}
	tr := newTracer(o.trace)

	// Set-up: spawning the daemon through its first completed job.
	var setups []float64
	var d *daemon
	var hc *http.Client
	var setupJob job
	for i := range setupReps {
		h := newHTTPClient()
		t0 := time.Now()
		dd, err := startDaemon(o.hssortd, h)
		if err != nil {
			return nil, err
		}
		c := &client{id: 0, tenant: tenants[0], base: "http://" + dd.addr, http: h, seed: o.seed ^ uint64(i+1)<<48}
		j := c.submit(tally, untraced)
		setups = append(setups, time.Since(t0).Seconds())
		rep.attempted++
		if i < setupReps-1 {
			h.CloseIdleConnections()
			if err := dd.stop(); err != nil {
				rep.fail("set-up daemon %d: %v", i, err)
			}
			continue
		}
		d, hc, setupJob = dd, h, j
	}
	defer d.kill()

	timed := time.Duration(o.seconds * float64(time.Second))
	jobs, wall := loop(tally, d, hc, o.seed, timed, tr)
	rep.ops = int64(len(jobs))

	// Cross-check the daemon's plan-cache counters against the per-job
	// verdicts of every job this daemon ran. The daemon counts a
	// replanned job as a hit too: a cached plan was applied, and its
	// staleness guard fired.
	counted := map[string]float64{}
	for _, j := range append([]job{setupJob}, jobs...) {
		counted[j.planCache]++
	}
	scraped, err := scrapeMetrics(hc, d.addr)
	if err != nil {
		rep.fail("scrape /metrics: %v", err)
	}
	for name, verdicts := range map[string][]string{
		"hssortd_plan_cache_hits_total":   {"hit", "replanned"},
		"hssortd_plan_cache_misses_total": {"miss"},
		"hssortd_plan_replans_total":      {"replanned"},
	} {
		want := 0.0
		for _, v := range verdicts {
			want += counted[v]
		}
		if err == nil && scraped[name] != want {
			rep.fail("/metrics %s = %g, but %g jobs reported planCache %q", name, scraped[name], want, verdicts)
		}
	}
	rss, rssErr := peakRSSMiB(strconv.Itoa(d.cmd.Process.Pid))
	hc.CloseIdleConnections()
	if err := d.stop(); err != nil {
		rep.fail("final daemon: %v", err)
	}
	if rssErr != nil {
		return nil, rssErr
	}

	if !o.trace {
		var lat []float64
		var keys float64
		imb := 0.0
		for _, j := range jobs {
			lat = append(lat, j.lat)
			if j.ok {
				keys += serveKeys
				imb = max(imb, j.stats.Imbalance)
			}
		}
		latencyMetrics(rep, lat)
		rep.set("latency_p50_ms", tenantP50(jobs), "ms", len(lat))
		for name, v := range verdictP50s(jobs) {
			rep.unbounded[name] = v
		}
		// Two clients overlap their jobs, so throughput is over the
		// loop's wall time.
		rep.set("mkeys_per_s", keys/wall.Seconds()/1e6, "Mkeys/s", len(lat))
		rep.set("imbalance_max", imb, "ratio", len(lat))
		rep.set("peak_rss_mib", rss, "MiB", 1)
		rep.set("setup_s", median(setups), "s", len(setups))
		return rep, nil
	}

	ser := series{}
	var hits, replans, refused float64
	var tracedJobs, baseJobs []job
	for _, j := range jobs {
		if j.traced {
			tracedJobs = append(tracedJobs, j)
		} else {
			baseJobs = append(baseJobs, j)
		}
		if j.refused {
			refused++
		}
		if !j.ok {
			continue
		}
		st := statsOf(j.stats)
		ser.add("server.sort_ms", ms(st.Total()))
		ser.add("server.overhead_ms", j.lat-ms(st.Total()))
		hits += b2f(j.planCache == "hit")
		replans += b2f(j.planCache == "replanned")
		addStats(ser, st, serveShards)
		if j.traced {
			ser.add("baseline.serial_sort_ms", ms(tr.do("baseline.slices.Sort", j.op, 0, func(int64) { slices.Sort(j.keys) })))
		}
	}
	ser.report(rep, o.units)
	for name, v := range verdictP50s(jobs) {
		rep.set("server."+name, v.value, v.unit, v.n)
	}
	traced, base := tenantP50(tracedJobs), tenantP50(baseJobs)
	rep.set("trace.latency_p50_ms", traced, "ms", len(tracedJobs))
	rep.set("trace.untraced_latency_p50_ms", base, "ms", len(baseJobs))
	rep.set("trace.overhead_frac", ratio(traced, base)-1, "ratio", len(tracedJobs))
	rep.set("server.plan_hit_ratio", ratio(hits, float64(len(jobs))), "ratio", len(jobs))
	rep.set("server.replan_ratio", ratio(replans, float64(len(jobs))), "ratio", len(jobs))
	rep.set("server.refused", refused, "count", len(jobs))
	rep.set("splitter.optimal_rounds", bspmodel.OptimalRounds(serveShards, eps), "count", 1)
	rep.set("splitter.sample_bound_keys", bspmodel.SampleSizeHSSConstant(serveShards, eps), "keys", 1)
	// The daemon's engine calls and kernels run in the child process,
	// out of this process's reach; only its Stats cross the wire.
	zero(rep, spillMetrics, o.units)
	zero(rep, inprocOnlyMetrics, o.units)
	printPaperBound(rep, serveShards)
	if err := tr.write(filepath.Join(o.out, fmt.Sprintf("%s-seed%d.spans.jsonl", o.workload, o.seed))); err != nil {
		return nil, err
	}
	tr.printSelfTimes(os.Stdout)
	return rep, nil
}

// tenantP50 is serve's job latency: the mean of the two tenants' median
// job latencies, so that the plan-cache hit path ("metrics") and the
// miss path ("ids") each count half, whatever share of the jobs each
// closed loop manages to submit.
func tenantP50(jobs []job) float64 {
	by := map[string][]float64{}
	for _, j := range jobs {
		by[j.tenant] = append(by[j.tenant], j.lat)
	}
	var sum float64
	for _, t := range tenants {
		sum += median(by[t.name])
	}
	return sum / float64(len(tenants))
}

// verdictP50s are the median latencies of the jobs the plan cache hit
// and of those it missed, as hit_p50_ms and miss_p50_ms.
func verdictP50s(jobs []job) map[string]sample {
	by := map[string][]float64{}
	for _, j := range jobs {
		by[j.planCache] = append(by[j.planCache], j.lat)
	}
	out := map[string]sample{}
	for _, v := range []string{"hit", "miss"} {
		out[v+"_p50_ms"] = sample{median(by[v]), "ms", len(by[v])}
	}
	return out
}

// inprocOnlyMetrics are the spans around library calls, which only the
// in-process workloads make.
var inprocOnlyMetrics = []string{
	"hssort.plan_ms", "hssort.sort_with_plan_ms", "hssort.alloc_bytes_per_key", "hssort.allocs_per_sort",
	"codes.sort_ms", "codes.encode_ms", "codes.decode_ms", "histogram.local_ranks_ms",
	"exchange.partition_ms", "merge.kway_ms",
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// statsOf rebuilds the library Stats a job document carries.
func statsOf(s *hssort.StatsSnapshot) hssort.Stats {
	return hssort.Stats{
		N: s.N, Buckets: s.Buckets, Rounds: s.Rounds, TotalSample: s.TotalSample,
		LocalSort: time.Duration(s.LocalSortNs), Splitter: time.Duration(s.SplitterNs),
		Exchange: time.Duration(s.ExchangeNs), Merge: time.Duration(s.MergeNs),
		ExchangeOverlap: time.Duration(s.ExchangeOverlapNs), PeakInFlightBytes: s.PeakInFlightBytes,
		SplitterBytes: s.SplitterBytes, ExchangeBytes: s.ExchangeBytes,
		TotalMsgs: s.TotalMsgs, TotalBytes: s.TotalBytes, Replanned: s.Replanned,
		Workers: s.Workers, ParSpawned: s.ParSpawned, ParTasks: s.ParTasks, Imbalance: s.Imbalance,
		SpilledBytes: s.SpilledBytes, SpillFileBytes: s.SpillFileBytes, SpillReads: s.SpillReads,
		PeakResidentBytes: s.PeakResidentBytes,
	}
}

// scrapeMetrics reads the unlabelled series of hssortd's /metrics.
func scrapeMetrics(hc *http.Client, addr string) (map[string]float64, error) {
	resp, err := hc.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.Contains(name, "{") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}
