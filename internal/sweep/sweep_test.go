package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wiban/internal/fleet"
	"wiban/internal/spectrum"
	"wiban/internal/telemetry"
)

// valid is a small spec every rejection case below breaks in one field.
func valid() Spec {
	return Spec{Wearers: 8, Seed: 1, DurSeconds: 1}
}

// TestNormalize lists every rejection either front end makes — the
// daemon's spec validation, which the CLI now shares — and pins the
// canonicalizations that make a normalized spec idempotent.
func TestNormalize(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		edit func(*Spec)
		want string // substring of the error
	}{
		{"zero wearers", func(s *Spec) { s.Wearers = 0 }, "non-positive population"},
		{"negative wearers", func(s *Spec) { s.Wearers = -3 }, "non-positive population"},
		{"zero span", func(s *Spec) { s.DurSeconds = 0 }, "span"},
		{"negative span", func(s *Spec) { s.DurSeconds = -5 }, "span"},
		{"NaN span", func(s *Spec) { s.DurSeconds = nan }, "span"},
		{"infinite span", func(s *Spec) { s.DurSeconds = inf }, "span"},
		{"negative workers", func(s *Spec) { s.Workers = -2 }, "negative worker count"},
		{"negative density", func(s *Spec) { s.Density = -1 }, "non-positive density"},
		{"NaN density", func(s *Spec) { s.Density = nan }, "non-positive density"},
		{"cells and density", func(s *Spec) { s.Cells, s.Density = 2, 4 }, "two spellings"},
		{"negative cells", func(s *Spec) { s.Cells = -1 }, "negative cell count"},
		{"feedback without cells", func(s *Spec) { s.Feedback = true }, "feedback needs a spectrum topology"},
		{"negative max iters", func(s *Spec) { s.Cells, s.Feedback, s.MaxIters = 2, true, -1 }, "iteration cap"},
		{"negative tolerance", func(s *Spec) { s.Cells, s.Feedback, s.TolPPM = 2, true, -1 }, "tolerance"},
		{"max iters without feedback", func(s *Spec) { s.Cells, s.MaxIters = 2, 4 }, "feedback knobs"},
		{"tolerance without feedback", func(s *Spec) { s.Cells, s.TolPPM = 2, 4 }, "feedback knobs"},
		{"negative series", func(s *Spec) { s.SeriesSeconds = -1 }, "series cadence"},
		{"NaN series", func(s *Spec) { s.SeriesSeconds = nan }, "series cadence"},
		{"infinite series", func(s *Spec) { s.SeriesSeconds = inf }, "series cadence"},
		{"negative block size", func(s *Spec) { s.BlockSize = -1 }, "negative block size"},
		{"negative shards", func(s *Spec) { s.Shards = -1 }, "shard count"},
		{"more shards than wearers", func(s *Spec) { s.Shards = 9 }, "shard count"},
		{"shards with a range", func(s *Spec) { s.Shards, s.FirstWearer = 2, 1 }, "coordinator knob"},
		{"shards with a label", func(s *Spec) { s.Shards, s.Label = 2, "x" }, "coordinator knob"},
		{"shards with a seed store", func(s *Spec) { s.Shards, s.SeedStoreURL = 2, "http://x" }, "coordinator knob"},
		{"shards with presolved", func(s *Spec) { s.Shards, s.Cells, s.Presolved = 2, 2, &Presolved{} }, "coordinator knob"},
		{"negative first wearer", func(s *Spec) { s.FirstWearer = -1 }, "negative wearer range"},
		{"negative end wearer", func(s *Spec) { s.EndWearer = -1 }, "negative wearer range"},
		{"empty range", func(s *Spec) { s.FirstWearer, s.EndWearer = 4, 4 }, "outside population"},
		{"range past population", func(s *Spec) { s.EndWearer = 9 }, "outside population"},
		{"first at population", func(s *Spec) { s.FirstWearer = 8 }, "outside population"},
		{"presolved without cells", func(s *Spec) { s.Presolved = &Presolved{} }, "presolved loads need"},
		{"presolved equilibrium without feedback", func(s *Spec) {
			s.Cells, s.Presolved = 2, &Presolved{Eq: &Equilibrium{Own: make([]int64, 8)}}
		}, "presolved equilibrium present=true"},
		{"feedback without presolved equilibrium", func(s *Spec) {
			s.Cells, s.Feedback, s.Presolved = 2, true, &Presolved{}
		}, "presolved equilibrium present=false"},
		{"presolved load outside cells", func(s *Spec) {
			s.Cells, s.Presolved = 2, &Presolved{Loads: []spectrum.CellLoad{{Cell: 5, PPM: 1}}}
		}, "presolved loads"},
		{"presolved equilibrium of the wrong range", func(s *Spec) {
			s.Cells, s.Feedback, s.Presolved = 2, true, &Presolved{Eq: &Equilibrium{Own: make([]int64, 3)}}
		}, "covers 3 wearers"},
		{"presolved equilibrium table outside cells", func(s *Spec) {
			s.Cells, s.Feedback = 2, true
			s.Presolved = &Presolved{Eq: &Equilibrium{Table: []spectrum.CellLoad{{Cell: 7, PPM: 1}}, Own: make([]int64, 8)}}
		}, "presolved equilibrium"},
		{"PER spread above 1", func(s *Spec) { s.PERSpread = 1.5 }, "PERSpread"},
		{"negative battery spread", func(s *Spec) { s.BatterySpread = -0.1 }, "BatterySpread"},
		{"battery spread of 1", func(s *Spec) { s.BatterySpread = 1 }, "BatterySpread"},
		{"harvester probability above 1", func(s *Spec) { s.HarvesterProb = 2 }, "HarvesterProb"},
		{"negative drop probability", func(s *Spec) { s.DropNodeProb = -1 }, "DropNodeProb"},
		{"BLE fraction above 1", func(s *Spec) { s.BLEFraction = 1.01 }, "BLEFraction"},
		{"NaN BLE fraction", func(s *Spec) { s.BLEFraction = nan }, "BLEFraction"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := valid()
			c.edit(&s)
			err := s.Normalize()
			if err == nil {
				t.Fatalf("accepted %+v", s)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}

	t.Run("canonical forms", func(t *testing.T) {
		s := valid()
		s.Density = 3 // ceil(8/3) = 3 cells
		s.EndWearer = s.Wearers
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		if s.Cells != 3 || s.Density != 0 || s.EndWearer != 0 {
			t.Fatalf("normalized to cells=%d density=%v end=%d, want 3, 0, 0", s.Cells, s.Density, s.EndWearer)
		}
		again := s
		if err := again.Normalize(); err != nil || again != s {
			t.Fatalf("second Normalize changed the spec or failed (%v): %+v", err, again)
		}
	})
}

// TestDensityFlagDerivation pins the -density → -cells arithmetic main
// uses: ceil(wearers/density), with density 1 giving every wearer its
// own cell and fractional densities asking for more cells than wearers.
func TestDensityFlagDerivation(t *testing.T) {
	for _, c := range []struct {
		wearers int
		density float64
		want    int
	}{
		{1000, 40, 25},
		{1000, 1, 1000},
		{1000, 3, 334},
		{1000, 2.5, 400},
		{1000, 0.5, 2000},
		{7, 100, 1},
	} {
		if cells := cellsForDensity(c.wearers, c.density); cells != c.want {
			t.Errorf("wearers=%d density=%g: cells=%d, want %d", c.wearers, c.density, cells, c.want)
		}
	}
}

// mustNormalize returns a normalized copy of s.
func mustNormalize(t *testing.T, s Spec) Spec {
	t.Helper()
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	return s
}

// reference runs spec uninterrupted without a store.
func reference(t *testing.T, spec Spec) *fleet.Report {
	t.Helper()
	f, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestKillResume drives the one create and resume path both front ends
// take: a sweep streamed to a store is killed mid-block, Open resumes it
// (adopting the store's format, guarding its metadata, replaying the
// committed prefix) and Run finishes it to the fingerprint of an
// uninterrupted run. The shard-range case is a store whose records start
// past wearer 0, which a replay count alone cannot position.
func TestKillResume(t *testing.T) {
	// The version-adoption rule resume applies: a store written in an
	// older format is continued in that format when it can still
	// represent the sweep, and the current format is demanded when it
	// cannot (which the meta guard then refuses).
	for _, c := range []struct {
		store, cells int
		feedback     bool
		series       bool
		want         int
	}{
		{telemetry.FormatV0, 0, false, false, telemetry.FormatV0},
		{telemetry.FormatV1, 0, false, false, telemetry.FormatV1},
		{telemetry.FormatV1, 4, false, false, telemetry.FormatV1},
		{telemetry.FormatV1, 4, true, false, telemetry.CurrentFormat}, // mismatch → guard will refuse
		{telemetry.FormatV2, 4, true, false, telemetry.FormatV2},
		{telemetry.FormatV0, 4, false, false, telemetry.CurrentFormat}, // v0 cannot hold cells
		{telemetry.FormatV2, 0, false, true, telemetry.CurrentFormat},  // v2 cannot hold series
		{telemetry.FormatV3, 0, false, true, telemetry.FormatV3},
		{telemetry.FormatV3, 4, true, true, telemetry.FormatV3},
	} {
		if got := telemetry.AdoptVersion(c.store, c.cells, c.feedback, c.series); got != c.want {
			t.Errorf("store v%d cells=%d feedback=%t series=%t: adopted v%d, want v%d",
				c.store, c.cells, c.feedback, c.series, got, c.want)
		}
	}

	for _, c := range []struct {
		name    string
		spec    Spec
		kill    int         // records the killed leg commits or buffers before dying
		version int         // non-zero: the killed store was written in this older format
		other   func(*Spec) // a different sweep the meta guard must refuse
	}{
		{
			name: "uncoupled",
			spec: Spec{Wearers: 40, Seed: 9, DurSeconds: 5, Workers: 2, PERSpread: 0.5, BatterySpread: 0.3, BlockSize: 8},
			kill: 19,
			// The meta guard must tell different seeds apart.
			other: func(s *Spec) { s.Seed = 10 },
		},
		{
			// The store replays the cell and foreign-load columns and the
			// engine recomputes phase 1 over the full population.
			name: "coupled",
			spec: Spec{Wearers: 40, Seed: 11, DurSeconds: 5, Workers: 2, PERSpread: 0.5, BLEFraction: 0.5, Cells: 4, BlockSize: 8},
			kill: 21,
			// The meta guard must tell a different spectrum topology apart.
			other: func(s *Spec) { s.Cells = 8 },
		},
		{
			// The store replays the equilibrium columns and the engine
			// re-solves the fixed point over the full population.
			name: "feedback",
			spec: Spec{Wearers: 40, Seed: 11, DurSeconds: 5, Workers: 2, PERSpread: 0.5, BLEFraction: 0.5, Cells: 4, Feedback: true, BlockSize: 8},
			kill: 21,
			// The meta guard must tell a first-order sweep from a feedback one.
			other: func(s *Spec) { s.Feedback = false },
		},
		{
			// A first-order coupled sweep killed into a v1 store (what an
			// older binary wrote) resumes under the current one in v1.
			name:    "adopt-older-version",
			spec:    Spec{Wearers: 30, Seed: 3, DurSeconds: 5, Workers: 2, BLEFraction: 1, Cells: 3, BlockSize: 8},
			kill:    17,
			version: telemetry.FormatV1,
			// v1 cannot hold the feedback columns, so a feedback resume of
			// it is a different sweep.
			other: func(s *Spec) { s.Feedback = true },
		},
		{
			name: "shard-range",
			spec: Spec{Wearers: 40, Seed: 9, DurSeconds: 5, Workers: 2, PERSpread: 0.5, BLEFraction: 0.5, Cells: 4,
				FirstWearer: 10, EndWearer: 34, BlockSize: 8},
			kill: 13,
			// A different shard of the same sweep is a different store.
			other: func(s *Spec) { s.FirstWearer = 2 },
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			spec := mustNormalize(t, c.spec)
			first, end := spec.Range()
			want := reference(t, spec)
			if spec.Cells > 0 && len(want.Cells) != spec.Cells {
				t.Fatalf("coupled reference run has %d cell stats, want %d", len(want.Cells), spec.Cells)
			}
			path := filepath.Join(t.TempDir(), "sweep.wtl")

			// Leg 1: stream into a fresh store and die after c.kill records
			// (mid-block), abandoning the uncommitted tail.
			f, meta, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			var store *telemetry.Writer
			if c.version != 0 {
				meta.Version = c.version
				store, err = telemetry.Create(path, meta)
			} else {
				var sw *Sweep
				if sw, err = spec.Open(path, false); err == nil {
					f, store = sw.Fleet, sw.Store
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			seen := 0
			killer := fleet.SinkFunc(func(rec telemetry.Record) error {
				if seen == c.kill {
					return fmt.Errorf("simulated kill")
				}
				seen++
				return store.Consume(rec)
			})
			if _, err := f.Stream(killer); err == nil {
				t.Fatal("kill-sink did not abort")
			}
			if err := store.Abort(); err != nil {
				t.Fatal(err)
			}

			// The meta guard refuses a spec describing a different sweep.
			other := spec
			c.other(&other)
			other = mustNormalize(t, other)
			if _, err := other.Open(path, true); !errors.Is(err, ErrMismatch) {
				t.Fatalf("resume with %+v: %v, want ErrMismatch", other, err)
			}

			// Leg 2: resume. The guard accepts the store's own spec, the
			// committed prefix is replayed and the fleet starts at the
			// checkpoint.
			sw, err := spec.Open(path, true)
			if err != nil {
				t.Fatalf("the guard refuses the sweep's own store: %v", err)
			}
			if got := sw.Store.Meta(); got != meta {
				t.Fatalf("store meta %+v, spec meta %+v", got, meta)
			}
			next := sw.Store.NextWearer()
			if committed := c.kill - c.kill%spec.BlockSize; next != first+committed {
				t.Fatalf("checkpoint at wearer %d, want %d (%d committed from %d)", next, first+committed, committed, first)
			}
			if sw.Fleet.Start != next {
				t.Fatalf("fleet starts at %d, checkpoint at %d", sw.Fleet.Start, next)
			}
			if got := sw.Agg.Wearers(); got != next-first {
				t.Fatalf("replayed %d records, checkpoint covers %d", got, next-first)
			}
			out, _, err := sw.Run(nil, nil)
			if out != Done || err != nil {
				t.Fatalf("resumed run ended %v: %v", out, err)
			}
			if got := sw.Agg.Wearers(); got != end-first {
				t.Fatalf("finished with %d records, want %d", got, end-first)
			}
			if sw.Agg.Report().Fingerprint() != want.Fingerprint() {
				t.Fatal("resumed sweep diverged from the uninterrupted run")
			}
			if c.version != 0 {
				if v := sw.Store.Meta().Version; v != c.version {
					t.Fatalf("resumed store reports version %d, want %d", v, c.version)
				}
				return
			}
			// A store resumed in the format it was created in is also
			// byte-identical to an uninterrupted one.
			truth := filepath.Join(t.TempDir(), "truth.wtl")
			ref, err := spec.Open(truth, false)
			if err != nil {
				t.Fatal(err)
			}
			if out, _, err := ref.Run(nil, nil); out != Done {
				t.Fatalf("uninterrupted run ended %v: %v", out, err)
			}
			a, _ := os.ReadFile(path)
			b, _ := os.ReadFile(truth)
			if len(a) == 0 || !bytes.Equal(a, b) {
				t.Fatalf("resumed store (%d bytes) differs from the uninterrupted one (%d bytes)", len(a), len(b))
			}
		})
	}
}

// TestRunOutcomes pins Run's stop handling: a closed stop channel parks
// the sweep resumable at its checkpoint, a closed cancel channel wins
// over stop, and an engine error fails the run and keeps the checkpoint.
func TestRunOutcomes(t *testing.T) {
	spec := mustNormalize(t, Spec{Wearers: 24, Seed: 5, DurSeconds: 2, Workers: 2, BlockSize: 4})
	closed := make(chan struct{})
	close(closed)
	for _, c := range []struct {
		name         string
		cancel, stop chan struct{}
		want         Outcome
	}{
		{"none", nil, nil, Done},
		{"stop", nil, closed, Interrupted},
		{"cancel", closed, nil, Cancelled},
		{"cancel beats stop", closed, closed, Cancelled},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "s.wtl")
			sw, err := spec.Open(path, false)
			if err != nil {
				t.Fatal(err)
			}
			out, _, err := sw.Run(c.cancel, c.stop)
			if out != c.want || err != nil {
				t.Fatalf("outcome %v (%v), want %v", out, err, c.want)
			}
			if c.want == Done {
				return
			}
			// Stopped before the first record: the store holds an empty
			// checkpoint that resumes from the first wearer.
			resumed, err := spec.Open(path, true)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Fleet.Start != 0 {
				t.Fatalf("resumed at %d, want 0", resumed.Fleet.Start)
			}
			if out, _, err := resumed.Run(nil, nil); out != Done {
				t.Fatalf("resume ended %v: %v", out, err)
			}
		})
	}

	// The daemon persists outcomes by name as sweep statuses.
	for o, name := range map[Outcome]string{Done: "done", Interrupted: "interrupted", Cancelled: "cancelled", Failed: "failed"} {
		if o.String() != name {
			t.Errorf("outcome %d renders as %q, want %q", int(o), o, name)
		}
	}

	t.Run("failed", func(t *testing.T) {
		sw, err := spec.Open(filepath.Join(t.TempDir(), "f.wtl"), false)
		if err != nil {
			t.Fatal(err)
		}
		sw.Fleet.Wearers = 0 // an engine error
		out, _, err := sw.Run(nil, nil)
		if out != Failed || err == nil {
			t.Fatalf("outcome %v (%v), want failed with an error", out, err)
		}
	})

	t.Run("no store", func(t *testing.T) {
		sw, err := spec.Open("", false)
		if err != nil {
			t.Fatal(err)
		}
		if sw.Store != nil {
			t.Fatal("store attached without a path")
		}
		if out, _, err := sw.Run(nil, nil); out != Done || sw.Agg.Wearers() != spec.Wearers {
			t.Fatalf("outcome %v (%v) after %d records", out, err, sw.Agg.Wearers())
		}
	})

	t.Run("resume without a store", func(t *testing.T) {
		if _, err := spec.Open(filepath.Join(t.TempDir(), "missing.wtl"), true); err == nil {
			t.Fatal("resumed a store that does not exist")
		}
	})
}

// TestSpecWireNames pins the spec's JSON field names: they are the HTTP
// API and the sidecar format, so renaming one strands every persisted
// sweep.
func TestSpecWireNames(t *testing.T) {
	s := Spec{
		Wearers: 1, Seed: 1, DurSeconds: 1, Workers: 1,
		PERSpread: 1, BatterySpread: 1, HarvesterProb: 1, DropNodeProb: 1, BLEFraction: 1, Drain: true,
		Cells: 1, Density: 1, Feedback: true, MaxIters: 1, TolPPM: 1,
		SeriesSeconds: 1, BlockSize: 1, Shards: 1,
		FirstWearer: 1, EndWearer: 1, Label: "x", SeedStoreURL: "x",
		Presolved: &Presolved{Eq: &Equilibrium{Iters: []spectrum.CellIters{{}}}},
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	want := []string{"wearers", "seed", "dur_seconds", "workers",
		"per_spread", "batt_spread", "harvest_prob", "drop_prob", "ble_frac", "drain",
		"cells", "density", "feedback", "max_iters", "tol_ppm",
		"series_seconds", "block_size", "shards",
		"first_wearer", "end_wearer", "label", "seed_store_url", "presolved"}
	if len(fields) != len(want) {
		t.Errorf("spec marshals %d fields, want %d: %s", len(fields), len(want), raw)
	}
	for _, k := range want {
		if _, ok := fields[k]; !ok {
			t.Errorf("field %q missing: %s", k, raw)
		}
	}
	if !strings.Contains(string(raw), `"presolved":{"loads":null,"eq":{"table":null,"iters":[`) ||
		!strings.Contains(string(raw), `"own":null`) {
		t.Errorf("presolved wire form changed: %s", raw)
	}
}
