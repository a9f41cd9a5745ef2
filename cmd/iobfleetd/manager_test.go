package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"wiban/internal/obs"
	"wiban/internal/spectrum"
	"wiban/internal/sweep"
)

// minimalSpec is a spec that passes Normalize but — with no runners
// started — never executes, so queue mechanics can be tested in
// isolation from the engine.
func minimalSpec(seed int64) sweep.Spec {
	return sweep.Spec{Wearers: 8, Seed: seed, DurSeconds: 1}
}

// scrape renders the registry's exposition text without a live server.
func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	return rec.Body.String()
}

// TestSubmitQueueFull pins the submission-order invariant: the
// queue-capacity check runs before any state is created, so a refused
// submission leaves no sidecar, no registry entry and no gauge
// increment. (The original bug persisted the sweep and bumped the gauge
// first, leaving orphaned state the next restart would re-queue.)
func TestSubmitQueueFull(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m, err := newManager(dir, 1, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.queueCap = 1 // runners never start, so one slot fills the queue

	if _, err := m.submit(minimalSpec(1)); err != nil {
		t.Fatal(err)
	}
	_, err = m.submit(minimalSpec(2))
	if err == nil || !strings.Contains(err.Error(), "queue full") {
		t.Fatalf("over-cap submit: %v, want queue-full error", err)
	}

	// The refusal must be invisible: exactly one sweep anywhere.
	if got := m.list(); len(got) != 1 {
		t.Errorf("registry holds %d sweeps after refusal, want 1", len(got))
	}
	sidecars, _ := filepath.Glob(filepath.Join(dir, "s*.json"))
	if len(sidecars) != 1 {
		t.Errorf("%d sidecars on disk after refusal, want 1: %v", len(sidecars), sidecars)
	}
	text := scrape(t, reg)
	if got := metricValue(t, text, "iobfleetd_sweeps_queued"); got != 1 {
		t.Errorf("queued gauge %v after refusal, want 1", got)
	}
	if got := metricValue(t, text, "iobfleetd_sweeps_submitted_total"); got != 1 {
		t.Errorf("submitted_total %v after refusal, want 1", got)
	}

	// A refused submission must not burn an ID either: the next accepted
	// sweep is s000001, not s000002.
	m.queueCap = 2
	st, err := m.submit(minimalSpec(2))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "s000001" {
		t.Errorf("post-refusal submit got ID %s, want s000001", st.ID)
	}
}

// TestRecoverBeyondQueueCap pins recovery's unbounded staging: a dead
// process may leave arbitrarily many queued sidecars — more than the
// submission queue cap — and the next process must still come up. (The
// original bug staged recovery through the bounded queue, so sidecar
// number queueCap+1 deadlocked newManager before the listener existed.)
func TestRecoverBeyondQueueCap(t *testing.T) {
	dir := t.TempDir()
	n := defaultQueueCap + 1
	for i := 0; i < n; i++ {
		st := sweepState{
			ID:     fmt.Sprintf("s%06d", i),
			Spec:   minimalSpec(int64(i)),
			Status: statusQueued,
		}
		raw, err := json.Marshal(&st)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, st.ID+".json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	type result struct {
		m   *manager
		err error
	}
	done := make(chan result, 1)
	go func() {
		m, err := newManager(dir, 1, obs.NewRegistry(), nil)
		done <- result{m, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		r.m.mu.Lock()
		queued, pending := r.m.queued, len(r.m.pending)
		r.m.mu.Unlock()
		if queued != n || pending != n {
			t.Errorf("recovered queued=%d pending=%d, want %d each", queued, pending, n)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("newManager deadlocked recovering more sidecars than the queue cap")
	}
}

// TestDrainQueuedGauge pins the drain hand-back: a sweep popped by a
// runner that loses the race with beginDrain goes back to the front of
// the queue, still queued on disk, in memory and in the gauge. (The
// original bug returned early without re-queuing, leaking the gauge and
// orphaning the sweep until restart.)
func TestDrainQueuedGauge(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := newManager(t.TempDir(), 1, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.submit(minimalSpec(1)); err != nil {
		t.Fatal(err)
	}

	// Replay the losing race by hand: pop like a runner, then drain
	// before run() begins. No runners were started, so beginDrain
	// returns as soon as the flag is set.
	m.mu.Lock()
	sw := m.pending[0]
	m.pending = m.pending[1:]
	m.mu.Unlock()
	m.beginDrain()
	m.run(sw)

	m.mu.Lock()
	queued, pending := m.queued, len(m.pending)
	var front *job
	if pending > 0 {
		front = m.pending[0]
	}
	m.mu.Unlock()
	if queued != 1 {
		t.Errorf("queued count %d after drain hand-back, want 1", queued)
	}
	if front != sw {
		t.Errorf("drained sweep not back at the queue front (pending %d)", pending)
	}
	if got := sw.snapshot().Status; got != statusQueued {
		t.Errorf("drained sweep status %q, want %q", got, statusQueued)
	}
	if got := metricValue(t, scrape(t, reg), "iobfleetd_sweeps_queued"); got != 1 {
		t.Errorf("queued gauge %v after drain hand-back, want 1", got)
	}
}

// TestHealthzDrainAware pins readiness semantics: /healthz answers 200
// only while the daemon accepts work, and flips to 503 the moment it
// drains — the probe coordinators use to route shards away from a
// backend that would refuse them. (The original bug kept /healthz at
// 200 during drain, so shard dispatch kept selecting dying backends.)
func TestHealthzDrainAware(t *testing.T) {
	reg := obs.NewRegistry()
	m, err := newManager(t.TempDir(), 1, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(newMux(m, reg))
	defer srv.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz before drain: %d, want 200", code)
	}
	m.beginDrain()
	if code := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: %d, want 503", code)
	}
	// Readiness and behavior must agree: everything that creates or
	// computes work refuses alongside the probe.
	spec := `{"wearers":8,"seed":1,"dur_seconds":1}`
	if code := post("/api/sweeps", spec); code != http.StatusServiceUnavailable {
		t.Errorf("submit during drain: %d, want 503", code)
	}
	loads := `{"wearers":8,"seed":1,"dur_seconds":1,"cells":4}`
	if code := post("/api/loads", loads); code != http.StatusServiceUnavailable {
		t.Errorf("loads gather during drain: %d, want 503", code)
	}
}

// TestSubmitLabelIdempotent pins the shard-dispatch contract: the same
// label with the same spec returns the existing sweep; the same label
// with a different spec is refused rather than silently re-bound.
func TestSubmitLabelIdempotent(t *testing.T) {
	m, err := newManager(t.TempDir(), 1, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := minimalSpec(1)
	spec.Label = "parent/shard0"
	first, err := m.submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := m.submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != first.ID {
		t.Errorf("re-dispatch created %s, want existing %s", again.ID, first.ID)
	}
	if got := m.list(); len(got) != 1 {
		t.Errorf("registry holds %d sweeps after re-dispatch, want 1", len(got))
	}
	changed := spec
	changed.Seed = 99
	if _, err := m.submit(changed); err == nil {
		t.Error("label rebind with a different spec accepted, want error")
	}
}

// TestShardRanges pins the deterministic tiling: contiguous, covering,
// sizes differing by at most one with the remainder up front.
func TestShardRanges(t *testing.T) {
	cases := []struct {
		wearers, shards int
		want            [][2]int
	}{
		{10, 3, [][2]int{{0, 4}, {4, 7}, {7, 10}}},
		{6, 3, [][2]int{{0, 2}, {2, 4}, {4, 6}}},
		{5, 1, [][2]int{{0, 5}}},
		{3, 3, [][2]int{{0, 1}, {1, 2}, {2, 3}}},
	}
	for _, c := range cases {
		got := shardRanges(c.wearers, c.shards)
		if len(got) != len(c.want) {
			t.Fatalf("shardRanges(%d,%d) = %v", c.wearers, c.shards, got)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("shardRanges(%d,%d)[%d] = %v, want %v", c.wearers, c.shards, i, got[i], c.want[i])
			}
		}
	}
}

// TestShardSubCanonical pins the sub-spec derivation: the coordinator
// knob is stripped, the range lands in first/end, and a final shard
// ending at the population uses the canonical end 0 spelling so it
// round-trips Normalize unchanged.
func TestShardSubCanonical(t *testing.T) {
	spec := minimalSpec(7)
	spec.Shards = 2
	sub := shardSub(spec, [2]int{4, 8})
	if sub.Shards != 0 {
		t.Errorf("sub-spec kept shards=%d", sub.Shards)
	}
	if sub.FirstWearer != 4 || sub.EndWearer != 0 {
		t.Errorf("final shard range (%d,%d), want (4,0 canonical)", sub.FirstWearer, sub.EndWearer)
	}
	if err := sub.Normalize(); err != nil {
		t.Errorf("canonical sub-spec fails Normalize: %v", err)
	}
	mid := shardSub(spec, [2]int{0, 4})
	if mid.FirstWearer != 0 || mid.EndWearer != 4 {
		t.Errorf("mid shard range (%d,%d), want (0,4)", mid.FirstWearer, mid.EndWearer)
	}

	// Series frames ride the merge's record re-encode (the shard Reader
	// re-pairs them, the merged Writer re-cuts the pairs at its own block
	// boundaries), so a sharded sweep accepts series_seconds and the
	// sub-specs carry the cadence through to every backend.
	withSeries := minimalSpec(7)
	withSeries.Shards = 2
	withSeries.SeriesSeconds = 0.5
	if err := withSeries.Normalize(); err != nil {
		t.Errorf("sharded spec with series_seconds refused: %v", err)
	}
	seriesSub := shardSub(withSeries, [2]int{0, 4})
	if seriesSub.SeriesSeconds != 0.5 {
		t.Errorf("sub-spec dropped series cadence: %v", seriesSub.SeriesSeconds)
	}
	if err := seriesSub.Normalize(); err != nil {
		t.Errorf("series sub-spec fails Normalize: %v", err)
	}
	if _, meta, err := seriesSub.Build(); err != nil || !meta.Series() {
		t.Errorf("series sub-spec builds a series-off store (meta %+v, err %v)", meta, err)
	}
}

// Sidecars exactly as the daemon wrote them before the spec moved into
// internal/sweep: a parked full sweep and a finished shard sub-sweep
// carrying every shard-side field.
const (
	legacyParkedSidecar = `{
  "id": "s000003",
  "spec": {
    "wearers": 40,
    "seed": 7,
    "dur_seconds": 5,
    "workers": 2,
    "per_spread": 0.5,
    "batt_spread": 0.3,
    "harvest_prob": 0.3,
    "drop_prob": 0.25,
    "ble_frac": 0.5,
    "cells": 4,
    "feedback": true,
    "max_iters": 16,
    "tol_ppm": 100,
    "series_seconds": 1,
    "block_size": 8
  },
  "status": "interrupted",
  "records": 16,
  "blocks": 2,
  "bytes": 4242
}
`
	legacyShardSidecar = `{
  "id": "s000004",
  "spec": {
    "wearers": 8,
    "seed": 1,
    "dur_seconds": 1,
    "cells": 2,
    "feedback": true,
    "first_wearer": 4,
    "label": "s000001/shard1",
    "seed_store_url": "http://127.0.0.1:9370/api/sweeps/s000001/shards/1/store",
    "presolved": {
      "loads": [
        {
          "cell": 0,
          "ppm": 5
        },
        {
          "cell": 1,
          "ppm": 9
        }
      ],
      "eq": {
        "table": [
          {
            "cell": 0,
            "ppm": 7
          },
          {
            "cell": 1,
            "ppm": 11
          }
        ],
        "iters": [
          {
            "cell": 0,
            "iters": 3
          }
        ],
        "own": [
          1,
          2,
          3,
          4
        ]
      }
    }
  },
  "status": "done",
  "records": 4,
  "blocks": 1,
  "bytes": 999,
  "fingerprint": "abc123"
}
`
)

// TestLegacySidecarRecovers pins the sidecar format: sidecars written by
// an earlier daemon recover into the same specs, the parked sweep runs
// to the fingerprint of its spec run directly, and re-persisting the
// terminal one reproduces its bytes.
func TestLegacySidecarRecovers(t *testing.T) {
	dir := t.TempDir()
	for id, raw := range map[string]string{"s000003": legacyParkedSidecar, "s000004": legacyShardSidecar} {
		if err := os.WriteFile(filepath.Join(dir, id+".json"), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := newManager(dir, 1, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	shard, ok := m.get("s000004")
	if !ok || m.byLabel["s000001/shard1"] != "s000004" {
		t.Fatalf("shard sidecar not recovered under its label: %v %v", ok, m.byLabel)
	}
	wantShard := sweep.Spec{Wearers: 8, Seed: 1, DurSeconds: 1, Cells: 2, Feedback: true, FirstWearer: 4,
		Label: "s000001/shard1", SeedStoreURL: "http://127.0.0.1:9370/api/sweeps/s000001/shards/1/store",
		Presolved: &sweep.Presolved{
			Loads: []spectrum.CellLoad{{Cell: 0, PPM: 5}, {Cell: 1, PPM: 9}},
			Eq: &sweep.Equilibrium{
				Table: []spectrum.CellLoad{{Cell: 0, PPM: 7}, {Cell: 1, PPM: 11}},
				Iters: []spectrum.CellIters{{Cell: 0, Iters: 3}},
				Own:   []int64{1, 2, 3, 4},
			},
		}}
	if got := shard.snapshot(); !reflect.DeepEqual(got.Spec, wantShard) || got.Status != statusDone || got.Fingerprint != "abc123" {
		t.Fatalf("shard sidecar recovered as %+v", got)
	}
	if err := m.persist(shard); err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(filepath.Join(dir, "s000004.json")); string(raw) != legacyShardSidecar {
		t.Fatalf("re-persisted sidecar differs:\n%s", raw)
	}

	m.start("http://unused.invalid")
	done := awaitSweep(t, m, "s000003", statusDone, 60*time.Second)
	m.beginDrain()
	spec := sweep.Spec{Wearers: 40, Seed: 7, DurSeconds: 5, Workers: 2, PERSpread: 0.5, BatterySpread: 0.3,
		HarvesterProb: 0.3, DropNodeProb: 0.25, BLEFraction: 0.5, Cells: 4, Feedback: true, MaxIters: 16, TolPPM: 100,
		SeriesSeconds: 1, BlockSize: 8}
	if !reflect.DeepEqual(done.Spec, spec) {
		t.Fatalf("parked sidecar recovered as %+v", done.Spec)
	}
	f, _, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if done.Fingerprint != rep.Fingerprint() || done.Records != spec.Wearers {
		t.Errorf("recovered sweep finished with %d records, fingerprint %q; want %d, %q",
			done.Records, done.Fingerprint, spec.Wearers, rep.Fingerprint())
	}
}
