// Command perfbench is the fleet-service benchmark. It starts one
// coordinator and two backend iobfleetd processes on loopback, drives
// them from a single-process HTTP client in a closed loop for a fixed
// window, checks every result against an independent single-process run,
// and prints its metrics by name, unit and sample count. run.sh builds
// the daemon, the CLI and this program from source, then runs it:
//
//	bash perfbench/run.sh --workload small-sweeps --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object. With --trace 0 it
// holds the end-to-end metrics every workload shares: setup_s, ops_per_s,
// op_p50_s (sweeps, or queries on store-read), store_mb_per_s and
// daemon_rss_peak_mb. The lines before it add each workload's own figures
// (sweeps_per_s, wearers_per_s, sweep_p95_s, queries_per_s, fetch_mb_per_s,
// fail_ratio, ...). With --trace 1 the run measures an untraced window,
// then a traced one, replays a fixed set of its sweeps in-process layer
// by layer, and reports per-layer metrics, self times and the tracing
// overhead; its spans are written to <work>/traces.
//
// The helpers' self-tests run with: go -C perfbench test ./...
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"wiban/internal/desim"
	"wiban/internal/telemetry"
)

// workload is one traffic mix. Sweep workloads submit spec(seed, i) for
// i = 0, 1, ...; store-read submits none in its window and reads the
// stores its set-up produced.
type workload struct {
	name    string
	clients int
	spec    func(seed int64, index int) sweepSpec
	// replays is how many of client 0's first sweeps a traced run replays
	// in-process: a fixed set, so the per-layer counts repeat exactly.
	replays int
	// stores is the number of series stores set-up produces (store-read).
	stores int
}

// Every sweep sets the iobfleet CLI's generator defaults and one worker
// per shard.
var workloads = []workload{
	{
		// Backend simulation, the phase-1 gather and solve and the serial
		// merge of ~7 MB per sweep dominate: engine, kernel, spectrum and
		// store-write changes show here.
		name: "sharded-feedback-series", clients: 1, replays: 3,
		spec: func(seed int64, i int) sweepSpec {
			return sweepSpec{
				Wearers: 4000, Seed: sweepSeed(seed, i), DurSeconds: 60, Workers: 1,
				Density: 8, Feedback: true, SeriesSeconds: 1, Shards: 2,
			}.withGeneratorDefaults()
		},
	},
	{
		// Simulation takes milliseconds, so the coordinator's control plane
		// (shard polling, dispatch, replication, merge, per-block commits)
		// dominates; kernel and spectrum changes should not move it.
		name: "small-sweeps", clients: 2, replays: 16,
		spec: func(seed int64, i int) sweepSpec {
			return sweepSpec{
				Wearers: 64, Seed: sweepSeed(seed, i), DurSeconds: 10, Workers: 1,
				BlockSize: 8, Shards: 2,
			}.withGeneratorDefaults()
		},
	},
	// The store's read side and its download endpoint, with no simulation
	// in the window: an encoding change that costs reads shows here.
	{name: "store-read", clients: 2, stores: 3},
}

// storeSpec is the sweep store-read's set-up submits to produce store i:
// a coupled series sweep cut into 64-record blocks, so its trailing query
// index holds 24 entries.
func storeSpec(seed int64, i int) sweepSpec {
	return sweepSpec{
		Wearers: 1500, Seed: sweepSeed(seed, i), DurSeconds: 60, Workers: 1,
		Density: 8, Feedback: true, SeriesSeconds: 1, BlockSize: 64, Shards: 2,
	}.withGeneratorDefaults()
}

// sweepSeed derives sweep i's fleet seed from the workload seed, so no two
// submissions of a run are the same sweep.
func sweepSeed(seed int64, i int) int64 { return desim.DeriveSeed(seed, uint64(i)) }

// Sweep index bases: the timed window starts at 0 in both the timed and
// the traced run, so both submit the same sweeps.
const (
	baselineBase = 500_000   // the untraced window of a traced run
	warmupBase   = 1_000_000 // one warm-up operation per client
)

// setupRepeats is how many times a run sets the fleet up; setup_s is the
// median.
const setupRepeats = 7

func main() {
	var (
		name    = flag.String("workload", "", "workload: sharded-feedback-series, small-sweeps or store-read")
		seed    = flag.Int64("seed", 1, "workload seed: every input derives from it")
		seconds = flag.Float64("seconds", 20, "length of the timed window")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
		bin     = flag.String("bin", ".bench_build/bin", "directory holding the iobfleetd and iobfleet binaries")
		work    = flag.String("work", ".bench_build", "directory for daemon data, logs and traces")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (sharded-feedback-series|small-sweeps|store-read), --seconds > 0 and --trace 0|1\n")
		os.Exit(2)
	}
	b := &bench{
		w: w, seed: *seed, window: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1,
		daemonBin: filepath.Join(*bin, "iobfleetd"), cliBin: filepath.Join(*bin, "iobfleet"),
		dir: filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid())),
	}
	b.traceDir = filepath.Join(*work, "traces")
	res, err := b.run()
	os.RemoveAll(b.dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	w         *workload
	seed      int64
	window    time.Duration
	traced    bool
	daemonBin string
	cliBin    string
	dir       string
	traceDir  string

	tr    *tracer
	c     *client
	fleet *fleetd

	stores    []*storeFile // store-read's set-up output
	storeRuns []*sweepRun  // the sweeps that produced them
	// prodBefore and prodAfter bracket the production of the stores.
	prodBefore, prodAfter []scrape

	attempted, failed int
	problems          []string // failed checks, printed before the result
}

// fail records a failed check.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// report prints one human-readable figure with its sample count.
func report(name string, value float64, unit string, n int) {
	note := ""
	if n == 0 {
		note = " (not on this workload's path)"
	}
	fmt.Printf("metric %-36s %14.6g %-6s n=%d%s\n", name, value, unit, n, note)
}

func (b *bench) run() (*result, error) {
	if err := os.MkdirAll(b.dir, 0o755); err != nil {
		return nil, err
	}
	if b.traced {
		b.tr = newTracer()
	}
	b.c = newClient(b.tr)
	printEnv(b)

	setups, err := b.setup()
	if err != nil {
		return nil, err
	}
	for _, s := range b.stores {
		fmt.Printf("store %s: %d committed bytes in blocks of %d records\n", s.sweep, len(s.committed), s.meta.BlockSize)
	}
	defer func() {
		if b.fleet != nil {
			b.fleet.kill()
		}
	}()

	warm := b.measure(warmupBase, time.Nanosecond)
	var baseline *window
	if b.traced {
		// The traced run measures an untraced window first, so tracing
		// overhead is the difference between two windows of one run.
		b.c.tr = nil
		baseline = b.measure(baselineBase, b.window)
		b.c.tr = b.tr
	}
	before, err := b.scrapeAll()
	if err != nil {
		return nil, err
	}
	timed := b.measure(0, b.window)
	after, err := b.scrapeAll()
	if err != nil {
		return nil, err
	}

	windows := []*window{warm, timed}
	if baseline != nil {
		windows = append(windows, baseline)
	}
	b.checkWindows(windows)

	// The sweeps per-layer figures describe, with the /metrics scrapes
	// around them: the timed window's, or on store-read the set-up sweeps
	// that produced its stores.
	var sweeps []*sweepRun
	for _, o := range timed.ops {
		if o.run != nil && o.err == nil {
			sweeps = append(sweeps, o.run)
		}
	}
	if b.w.stores > 0 {
		sweeps, before, after = b.storeRuns, b.prodBefore, b.prodAfter
	}
	b.checkRounds(before, after)

	res := &result{Metrics: map[string]metric{}}
	if b.traced {
		if err := b.layers(res, timed, baseline, sweeps, before, after); err != nil {
			b.fail("traced pass: %v", err)
		}
		if err := os.MkdirAll(b.traceDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(b.traceDir, fmt.Sprintf("%s-seed%d.ndjson", b.w.name, b.seed))
		if err := b.tr.write(path); err != nil {
			return nil, err
		}
		fmt.Printf("trace %s (%d spans)\n", path, len(b.tr.snapshot()))
	}

	peaks, err := b.fleet.rssPeaks()
	if err != nil {
		return nil, err
	}
	var rss int64
	for i, d := range b.fleet.all() {
		fmt.Printf("rss %s VmHWM %.1f MB\n", d.role, float64(peaks[i])/(1<<20))
		rss += peaks[i]
	}
	if err := b.fleet.stop(b.c); err != nil {
		b.fail("shutdown: %v", err)
	}
	b.fleet = nil

	b.endToEnd(res, timed, setups, rss)
	for _, p := range b.problems {
		fmt.Printf("FAIL %s\n", p)
	}
	res.Attempted, res.Failed = b.attempted, b.failed
	res.Correct = b.failed == 0
	return res, nil
}

// printEnv records the host and the source the numbers come from.
func printEnv(b *bench) {
	commit := "none (not a git checkout)"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	fmt.Printf("env workload=%s seed=%d seconds=%g trace=%t nproc=%d go=%s commit=%s source_sha256=%s\n",
		b.w.name, b.seed, b.window.Seconds(), b.traced, runtime.NumCPU(), runtime.Version(), commit, sourceDigest("."))
}

// sourceDigest hashes every Go source and module file under root (hidden
// directories skipped), identifying the code measured when there is no
// commit to name.
func sourceDigest(root string) string {
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			if raw, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(raw))
				h.Write(raw)
			}
		}
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// setup starts the fleet setupRepeats times, keeping the last; each
// start runs from spawning the daemons until every /healthz answers and
// the coordinator lists both backends live. For store-read it also
// produces the stores the workload reads.
func (b *bench) setup() ([]float64, error) {
	var times []float64
	for i := 0; i < setupRepeats; i++ {
		if b.fleet != nil {
			if err := b.fleet.stop(b.c); err != nil {
				b.fail("set-up %d shutdown: %v", i, err)
			}
			b.fleet = nil
		}
		start := time.Now()
		f, err := startFleet(b.c, b.daemonBin, filepath.Join(b.dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, err
		}
		b.fleet = f
		if b.w.stores > 0 {
			if err := b.produceStores(); err != nil {
				b.fleet.kill()
				return nil, err
			}
		}
		times = append(times, since(start))
	}
	return times, nil
}

// produceStores runs store-read's sweeps through the fleet one after
// another and loads the coordinator's completed stores.
func (b *bench) produceStores() error {
	var err error
	if b.prodBefore, err = b.scrapeAll(); err != nil {
		return err
	}
	runs := make([]*sweepRun, b.w.stores)
	for i := range runs {
		runs[i] = b.c.runSweep(b.fleet.coord.base, i, storeSpec(b.seed, i))
	}
	if b.prodAfter, err = b.scrapeAll(); err != nil {
		return err
	}
	b.stores, b.storeRuns = nil, runs
	for _, r := range runs {
		if r.err != nil {
			return fmt.Errorf("producing stores: %w", r.err)
		}
		s, err := loadStore(r.id, filepath.Join(b.fleet.coord.data, r.id+".wtl"))
		if err != nil {
			return err
		}
		r.setStore(s.committed)
		b.stores = append(b.stores, s)
	}
	return nil
}

// op is one completed operation of a window.
type op struct {
	kind  string // "sweep", "query.full|window|cell", "fetch.full|from"
	dur   time.Duration
	bytes int64
	err   error
	run   *sweepRun   // sweeps
	query *queryCheck // queries
}

// window is one measured stretch of closed-loop traffic.
type window struct {
	ops     []op
	elapsed time.Duration // first submit to last completion
}

// latencies are the seconds taken by the window's successful
// latency-bound requests: sweeps, or queries on store-read.
func (w *window) latencies() []float64 {
	var out []float64
	for _, o := range w.ops {
		if o.err == nil && (o.run != nil || o.query != nil) {
			out = append(out, o.dur.Seconds())
		}
	}
	return out
}

// measure runs every client in a closed loop — the next operation starts
// when the previous one ends — until d has passed, finishing the
// operations in flight. Indices start at base.
func (b *bench) measure(base int, d time.Duration) *window {
	out := make([][]op, b.w.clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < b.w.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(b.seed), uint64(base+c)))
			for k := 0; k == 0 || time.Since(start) < d; k++ {
				index := base + k*b.w.clients + c
				var o op
				if b.w.spec != nil {
					run := b.c.runSweep(b.fleet.coord.base, index, b.w.spec(b.seed, index))
					o = op{kind: "sweep", dur: run.latency, run: run, err: run.err}
				} else {
					o = b.readOp(rng, k)
				}
				out[c] = append(out[c], o)
			}
		}(c)
	}
	wg.Wait()
	w := &window{elapsed: time.Since(start)}
	for _, ops := range out {
		w.ops = append(w.ops, ops...)
	}
	return w
}

// readMix is the request sequence each store-read client cycles
// through: queries of each shape (full column, time window, single cell)
// and full or incremental downloads, 5 queries to 3 downloads. A fixed
// cycle, not a random draw, so the mix is the same in every run.
var readMix = []string{"full", "fetch.full", "window", "fetch.from", "cell", "window", "fetch.from", "cell"}

// readOp is request k of a store-read client, on a random store with
// random parameters.
func (b *bench) readOp(rng *rand.Rand, k int) op {
	si := rng.IntN(len(b.stores))
	s := b.stores[si]
	switch kind := readMix[k%len(readMix)]; kind {
	case "full", "window", "cell":
		q := randomQuery(rng, kind, s.meta)
		id := b.c.tr.begin("telemetry.QueryStore."+kind, s.sweep, 0)
		start := time.Now()
		st, err := telemetry.QueryStore(s.path, q)
		dur := time.Since(start)
		b.c.tr.end(id)
		o := op{kind: "query." + kind, dur: dur, err: err}
		if err == nil {
			o.query = &queryCheck{store: si, q: q, got: *st}
		}
		return o
	default:
		var from int64
		if kind == "fetch.from" {
			from = rng.Int64N(int64(len(s.committed)))
		}
		start := time.Now()
		got, off, err := b.c.fetchStore(b.fleet.coord.base, s.sweep, from)
		o := op{kind: kind, dur: time.Since(start), bytes: int64(len(got)), err: err}
		if err == nil {
			o.err = checkFetch(s, from, got, off)
		}
		return o
	}
}

// scrapeAll takes /metrics and the allocation total from every daemon,
// coordinator first.
func (b *bench) scrapeAll() ([]scrape, error) {
	var out []scrape
	for _, d := range b.fleet.all() {
		s, err := b.c.metrics(d.base, d.role)
		if err != nil {
			return nil, err
		}
		alloc, err := b.c.totalAlloc(d.base, d.role)
		if err != nil {
			return nil, err
		}
		s["go_total_alloc_bytes"] = alloc
		out = append(out, s)
	}
	return out, nil
}

// checkWindows verifies every operation: sweeps against an independent
// single-process run of the same spec, queries against a brute-force
// decode of the store.
func (b *bench) checkWindows(windows []*window) {
	var sweeps []*sweepRun
	checks := map[int][]*queryCheck{}
	for _, w := range windows {
		for _, o := range w.ops {
			b.attempted++
			switch {
			case o.err != nil:
				b.fail("%s: %v", o.kind, o.err)
			case o.run != nil:
				sweeps = append(sweeps, o.run)
			case o.query != nil:
				checks[o.query.store] = append(checks[o.query.store], o.query)
			}
		}
	}
	for _, r := range b.storeRuns {
		b.attempted++
		sweeps = append(sweeps, r)
	}
	for si, qs := range checks {
		if err := verifyQueries(b.stores[si].path, qs); err != nil {
			b.fail("%v", err)
		}
	}
	b.checkSweeps(sweeps)
}

// checkSweeps downloads each sweep's committed store, then holds its
// fingerprint and bytes to an iobfleet run of the same spec, two at a
// time.
func (b *bench) checkSweeps(runs []*sweepRun) {
	work := make(chan *sweepRun)
	errs := make(chan error, len(runs))
	var wg sync.WaitGroup
	for worker := 0; worker < 2; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for r := range work {
				errs <- b.checkSweep(r, fmt.Sprint(worker))
			}
		}(worker)
	}
	for _, r := range runs {
		work <- r
	}
	close(work)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			b.fail("%v", err)
		}
	}
}

func (b *bench) checkSweep(r *sweepRun, tag string) error {
	if r.storeSize == 0 {
		got, off, err := b.c.fetchStore(b.fleet.coord.base, r.id, 0)
		if err != nil {
			return err
		}
		if off != int64(len(got)) {
			return fmt.Errorf("sweep %s: downloaded %d bytes, committed offset %d", r.id, len(got), off)
		}
		r.setStore(got)
	}
	fp, want, err := reference(b.cliBin, b.dir, r.spec, tag)
	if err != nil {
		return err
	}
	if !strings.HasPrefix(r.final.Fingerprint, fp) {
		return fmt.Errorf("sweep %s (index %d): fingerprint %.16s, single-process run %s", r.id, r.index, r.final.Fingerprint, fp)
	}
	if sha256.Sum256(want) != r.storeSum {
		return fmt.Errorf("sweep %s (index %d): store (%d bytes) differs from the single-process run's (%d bytes)", r.id, r.index, r.storeSize, len(want))
	}
	return nil
}

// checkRounds requires the equilibrium solver to have iterated on a
// feedback workload: without the generator's defaults every wearer sits
// on Wi-R alone and each cell converges in zero rounds.
func (b *bench) checkRounds(before, after []scrape) {
	spec := storeSpec(b.seed, 0)
	if b.w.spec != nil {
		spec = b.w.spec(b.seed, 0)
	}
	if !spec.Feedback {
		return
	}
	d := delta(before[0], after[0])
	if d["iobfleetd_equilibrium_cells_total"] == 0 || d["iobfleetd_equilibrium_iterations_total"] == 0 {
		b.fail("equilibrium solved %v cells in %v rounds; want rounds > 0",
			d["iobfleetd_equilibrium_cells_total"], d["iobfleetd_equilibrium_iterations_total"])
	}
}

// endToEnd reports the user-visible figures of the timed window: the
// workload's own figures for reading, and the figures every workload
// shares for the result line. Those are ops_per_s, every completed
// request per second; op_p50_s, the median of the latency-bound request
// (a sweep, or a query on store-read, whose downloads are
// throughput-bound); and store_mb_per_s, the store bytes the service
// delivered per second (committed sweep stores, or downloads).
func (b *bench) endToEnd(res *result, w *window, setups []float64, rss int64) {
	byKind := map[string][]float64{}
	var wearers, delivered int64
	var fetchTime float64
	for _, o := range w.ops {
		if o.err != nil {
			continue
		}
		byKind[o.kind] = append(byKind[o.kind], o.dur.Seconds())
		if o.run != nil {
			wearers += int64(o.run.spec.Wearers)
			delivered += o.run.storeSize
		}
		if strings.HasPrefix(o.kind, "fetch.") {
			delivered += o.bytes
			fetchTime += o.dur.Seconds()
		}
	}
	secs := w.elapsed.Seconds()
	latency := w.latencies()

	report("setup_s", median(setups), "s", len(setups))
	if b.w.spec != nil {
		report("sweeps_per_s", float64(len(latency))/secs, "1/s", len(latency))
		report("wearers_per_s", float64(wearers)/secs, "1/s", len(latency))
		report("sweep_p50_s", median(latency), "s", len(latency))
		reportTail("sweep", latency)
	} else {
		report("queries_per_s", float64(len(latency))/secs, "1/s", len(latency))
		report("query_p50_s", median(latency), "s", len(latency))
		reportTail("query", latency)
		for _, k := range []string{"query.full", "query.window", "query.cell", "fetch.full", "fetch.from"} {
			report(strings.ReplaceAll(k, ".", "_")+"_p50_s", median(byKind[k]), "s", len(byKind[k]))
		}
		nf := len(byKind["fetch.full"]) + len(byKind["fetch.from"])
		report("fetch_mb_per_s", float64(delivered)/1e6/fetchTime, "MB/s", nf)
	}
	report("fail_ratio", float64(b.failed)/float64(max(1, b.attempted)), "ratio", b.attempted)
	report("daemon_rss_peak_mb", float64(rss)/(1<<20), "MB", 3)

	if b.traced {
		return
	}
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	set("setup_s", median(setups), "s")
	set("ops_per_s", windowRate(w), "1/s")
	set("op_p50_s", median(latency), "s")
	set("store_mb_per_s", float64(delivered)/1e6/secs, "MB/s")
	set("daemon_rss_peak_mb", float64(rss)/(1<<20), "MB")
}

// reportTail prints the 95th percentile when at least ten samples lie
// beyond it, and otherwise the highest percentile that qualifies.
func reportTail(prefix string, xs []float64) {
	if percentileReportable(len(xs), 95) {
		report(prefix+"_p95_s", quantile(xs, 0.95), "s", len(xs))
		return
	}
	if p, ok := tailPercentile(len(xs)); ok {
		report(fmt.Sprintf("%s_p%g_s", prefix, p), quantile(xs, p/100), "s", len(xs))
		return
	}
	fmt.Printf("metric %-36s %14s %-6s n=%d (fewer than %d samples beyond p75)\n", prefix+"_p95_s", "n/a", "s", len(xs), minBeyond)
}

// since is the wall time elapsed since t, in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
