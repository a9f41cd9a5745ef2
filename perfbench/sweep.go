package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wiban/internal/fleet"
	"wiban/internal/spectrum"
	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// sweepSpec is the client side of POST /api/sweeps: the fields the
// workloads set.
type sweepSpec struct {
	Wearers       int     `json:"wearers"`
	Seed          int64   `json:"seed"`
	DurSeconds    float64 `json:"dur_seconds"`
	Workers       int     `json:"workers,omitempty"`
	PERSpread     float64 `json:"per_spread,omitempty"`
	BatterySpread float64 `json:"batt_spread,omitempty"`
	HarvesterProb float64 `json:"harvest_prob,omitempty"`
	DropNodeProb  float64 `json:"drop_prob,omitempty"`
	BLEFraction   float64 `json:"ble_frac,omitempty"`
	Density       float64 `json:"density,omitempty"`
	Feedback      bool    `json:"feedback,omitempty"`
	SeriesSeconds float64 `json:"series_seconds,omitempty"`
	BlockSize     int     `json:"block_size,omitempty"`
	Shards        int     `json:"shards,omitempty"`
}

// withGeneratorDefaults sets the iobfleet CLI's population-generator
// defaults. The daemon takes every field literally, so a spec without
// them puts every wearer on Wi-R alone and the spectrum layer idles.
func (s sweepSpec) withGeneratorDefaults() sweepSpec {
	s.PERSpread, s.BatterySpread, s.HarvesterProb, s.DropNodeProb, s.BLEFraction = 0.5, 0.3, 0.3, 0.25, 0.25
	return s
}

// cells is the spectrum cell count the daemon derives from density.
func (s sweepSpec) cells() int {
	if s.Density <= 0 {
		return 0
	}
	return max(1, int(math.Ceil(float64(s.Wearers)/s.Density)))
}

func ftoa(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// cliArgs are the iobfleet flags describing the same sweep, writing its
// store to out.
func (s sweepSpec) cliArgs(out string) []string {
	args := []string{
		"-wearers", strconv.Itoa(s.Wearers), "-seed", strconv.FormatInt(s.Seed, 10),
		"-dur", ftoa(s.DurSeconds), "-workers", "1",
		"-per-spread", ftoa(s.PERSpread), "-batt-spread", ftoa(s.BatterySpread),
		"-harvest-prob", ftoa(s.HarvesterProb), "-drop-prob", ftoa(s.DropNodeProb),
		"-ble-frac", ftoa(s.BLEFraction), "-out", out,
	}
	if s.Density > 0 {
		args = append(args, "-density", ftoa(s.Density))
	}
	if s.Feedback {
		args = append(args, "-feedback")
	}
	if s.SeriesSeconds > 0 {
		args = append(args, "-series", ftoa(s.SeriesSeconds))
	}
	if s.BlockSize > 0 {
		args = append(args, "-block-size", strconv.Itoa(s.BlockSize))
	}
	return args
}

// reference runs the same sweep single-process through the iobfleet CLI
// and returns its fingerprint prefix and its store's committed bytes.
func reference(iobfleet, dir string, s sweepSpec, tag string) (string, []byte, error) {
	out := filepath.Join(dir, "ref-"+tag+".wtl")
	defer os.Remove(out)
	defer os.Remove(telemetry.CheckpointPath(out))
	cmd := exec.Command(iobfleet, s.cliArgs(out)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return "", nil, fmt.Errorf("iobfleet %v: %w: %s", s.cliArgs(out), err, stderr.String())
	}
	fp := ""
	for _, line := range strings.Split(stdout.String(), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "fingerprint "); ok {
			fp = strings.Fields(rest)[0]
		}
	}
	if fp == "" {
		return "", nil, fmt.Errorf("iobfleet printed no fingerprint")
	}
	committed, err := committedPrefix(out)
	return fp, committed, err
}

// committedPrefix reads a store's checkpoint-covered bytes: everything
// but the trailing query index, which is what the daemon's store
// endpoint serves.
func committedPrefix(path string) ([]byte, error) {
	_, off, _, err := telemetry.Committed(path)
	if err != nil {
		return nil, err
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if off > int64(len(raw)) {
		return nil, fmt.Errorf("%s: checkpoint offset %d past end %d", path, off, len(raw))
	}
	return raw[:off], nil
}

// shardRanges tiles [0, wearers) into contiguous ranges whose sizes
// differ by at most one, the first wearers%shards one larger: the
// coordinator's tiling, restated because cmd/iobfleetd is a main package.
func shardRanges(wearers, shards int) [][2]int {
	base, extra := wearers/shards, wearers%shards
	out := make([][2]int, shards)
	next := 0
	for k := range out {
		n := base
		if k < extra {
			n++
		}
		out[k] = [2]int{next, next + n}
		next += n
	}
	return out
}

// build composes the fleet and store metadata of spec exactly as the
// daemon and the CLI do.
func (s sweepSpec) build() (*fleet.Fleet, telemetry.Meta) {
	gen := &fleet.Generator{
		Base:          fleet.DefaultBase(),
		PERSpread:     s.PERSpread,
		BatterySpread: s.BatterySpread,
		HarvesterProb: s.HarvesterProb,
		DropNodeProb:  s.DropNodeProb,
		BLEFraction:   s.BLEFraction,
	}
	f := &fleet.Fleet{
		Wearers:  s.Wearers,
		Seed:     s.Seed,
		Scenario: gen.Scenario(),
		Loads:    gen.LoadScenario(),
		Span:     units.Duration(s.DurSeconds),
		Workers:  s.Workers,
		Series:   units.Duration(s.SeriesSeconds),
	}
	tag := gen.Tag()
	if cells := s.cells(); cells > 0 {
		f.Coupling = &fleet.Coupling{Cells: cells, Model: spectrum.Default(), Feedback: s.Feedback}
		tag += ";" + f.Coupling.Tag()
	}
	meta := telemetry.Meta{
		FleetSeed:            s.Seed,
		Wearers:              s.Wearers,
		SpanSeconds:          s.DurSeconds,
		Scenario:             tag,
		BlockSize:            s.BlockSize,
		Version:              telemetry.CreateVersion(s.SeriesSeconds > 0),
		Cells:                s.cells(),
		Feedback:             s.Feedback && s.cells() > 0,
		SeriesCadenceSeconds: s.SeriesSeconds,
	}
	return f, meta
}

// replayResult is what one in-process replay of a sharded sweep measured
// beyond its spans.
type replayResult struct {
	gather      time.Duration // slowest shard's GatherLoads: the shards gather in parallel
	wearers     int
	events      uint64
	commits     int // shard-store commits plus merged-store blocks
	mergedBytes int64
	rounds      int64 // equilibrium rounds summed over cells
	cells       int
	windowPeak  int
}

// replay re-runs a completed sharded sweep in-process through the public
// calls the daemon makes, in the daemon's order, each inside a span:
// Fleet.GatherLoads per shard range, the load-table merge,
// Equilibrium.Solve, Fleet.Stream into telemetry.Create writers with the
// merged phase 1 presolved, then MergeShards. The shards run one after
// another, so each layer's time is its own. The merged store must match
// the daemon's byte for byte and fingerprint for fingerprint.
func replay(tr *tracer, dir string, run *sweepRun) (replayResult, error) {
	var res replayResult
	spec := run.spec
	top := tr.begin("replay", run.id, 0)
	defer tr.end(top)
	call := func(name string, fn func() error) error {
		id := tr.begin(name, run.id, top)
		defer tr.end(id)
		return fn()
	}

	f, meta := spec.build()
	ranges := shardRanges(spec.Wearers, spec.Shards)
	shardFleet := func(rng [2]int) *fleet.Fleet {
		fk := *f
		fk.Start, fk.End = rng[0], rng[1]
		if fk.End == fk.Wearers {
			fk.End = 0
		}
		if f.Coupling != nil {
			c := *f.Coupling
			fk.Coupling = &c
		}
		return &fk
	}

	if f.Coupling != nil {
		total, err := spectrum.NewLoadTable(f.Coupling.Cells)
		if err != nil {
			return res, err
		}
		var members []spectrum.Member
		for _, rng := range ranges {
			var part *spectrum.LoadTable
			var mem []spectrum.Member
			start := time.Now()
			if err := call("fleet.GatherLoads", func() (err error) {
				part, mem, err = shardFleet(rng).GatherLoads()
				return err
			}); err != nil {
				return res, err
			}
			res.gather = max(res.gather, time.Since(start))
			if err := call("spectrum.LoadTable.Merge", func() error { return total.Merge(part) }); err != nil {
				return res, err
			}
			members = append(members, mem...)
		}
		pre := &fleet.Presolved{Loads: total}
		if spec.Feedback {
			var eq *spectrum.Result
			if err := call("spectrum.Equilibrium.Solve", func() (err error) {
				eq, err = (&spectrum.Equilibrium{}).Solve(f.Coupling.Cells, members)
				return err
			}); err != nil {
				return res, err
			}
			for _, ci := range eq.ExportIters() {
				res.rounds += int64(ci.Iters)
			}
			res.cells = f.Coupling.Cells
			pre.Eq = eq
		}
		f.Coupling.Presolved = pre
	}

	paths := make([]string, len(ranges))
	defer func() {
		for _, p := range paths {
			os.Remove(p)
			os.Remove(telemetry.CheckpointPath(p))
		}
	}()
	for k, rng := range ranges {
		paths[k] = filepath.Join(dir, fmt.Sprintf("replay-shard%d.wtl", k))
		fk := shardFleet(rng)
		m := meta
		m.FirstWearer, m.EndWearer = rng[0], fk.End
		var w *telemetry.Writer
		if err := call("telemetry.Create", func() (err error) {
			w, err = telemetry.Create(paths[k], m)
			return err
		}); err != nil {
			return res, err
		}
		w.OnCommit = func(int, int, int64) { res.commits++ }
		stream := tr.begin("fleet.Stream", run.id, top)
		sink := fleet.SinkFunc(func(rec telemetry.Record) error {
			id := tr.begin("telemetry.Writer.Consume", run.id, stream)
			defer tr.end(id)
			res.events += rec.Events
			res.wearers++
			return w.Consume(rec)
		})
		perf, err := fk.Stream(sink)
		tr.end(stream)
		if err != nil {
			w.Abort()
			return res, err
		}
		res.windowPeak = max(res.windowPeak, perf.MaxPending)
		if err := call("telemetry.Writer.Close", w.Close); err != nil {
			return res, err
		}
	}

	merged := filepath.Join(dir, "replay-merged.wtl")
	defer os.Remove(merged)
	defer os.Remove(telemetry.CheckpointPath(merged))
	agg := fleet.NewStreamAggregator(f.Span)
	if err := call("telemetry.MergeShards", func() error {
		blocks, size, err := telemetry.MergeShards(merged, paths, agg.Consume)
		res.commits += blocks
		res.mergedBytes = size
		return err
	}); err != nil {
		return res, err
	}
	if fp := agg.Report().Fingerprint(); fp != run.final.Fingerprint {
		return res, fmt.Errorf("replay of sweep %s: fingerprint %.16s, daemon %.16s", run.id, fp, run.final.Fingerprint)
	}
	committed, err := committedPrefix(merged)
	if err != nil {
		return res, err
	}
	if sha256.Sum256(committed) != run.storeSum {
		return res, fmt.Errorf("replay of sweep %s: merged store differs from the daemon's (%d vs %d bytes)", run.id, len(committed), run.storeSize)
	}
	return res, nil
}
