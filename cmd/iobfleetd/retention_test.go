package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"wiban/internal/obs"
	"wiban/internal/sweep"
	"wiban/internal/telemetry"
)

// awaitSweep polls an in-process sweep until it reaches status.
func awaitSweep(t *testing.T, m *manager, id, status string, timeout time.Duration) sweepState {
	t.Helper()
	sw, ok := m.get(id)
	if !ok {
		t.Fatalf("no sweep %s", id)
	}
	deadline := time.Now().Add(timeout)
	for {
		st := sw.snapshot()
		if st.Status == status {
			return st
		}
		if st.terminal() && st.Status != status {
			t.Fatalf("sweep %s reached %q (error %q) waiting for %q", id, st.Status, st.Error, status)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s stuck at %q waiting for %q", id, st.Status, status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// awaitRetired waits until m's retention GC has retired n sweeps.
// pruneRetained drops a victim from the registry before it unlinks the
// victim's files, and bumps iobfleetd_sweeps_retired_total only after
// the unlinks, so the counter, not the registry, says when the files are
// gone.
func awaitRetired(t *testing.T, m *manager, n float64) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for m.metrics.retired.Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("retention GC retired %v sweeps, want %v", m.metrics.retired.Value(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetainGC pins -retain's contract from both sides: beyond the
// newest N terminal sweeps the oldest lose their sidecar, store and
// checkpoint — but resumable state (an interrupted sweep a drain
// parked) is never touched, survives a restart's boot-time prune, and
// actually resumes to completion afterwards.
func TestRetainGC(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	m, err := newManager(dir, 2, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.retain = 2
	m.start("http://unused.invalid")

	// Three fast sweeps to completion: the third finish must prune the
	// first (newest 2 retained).
	var ids []string
	for seed := int64(1); seed <= 3; seed++ {
		st, err := m.submit(minimalSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids[1:] {
		awaitSweep(t, m, id, statusDone, 60*time.Second)
	}
	awaitRetired(t, m, 1)
	if _, ok := m.get(ids[0]); ok {
		t.Errorf("sweep %s still registered beyond -retain 2", ids[0])
	}
	for _, name := range []string{ids[0] + ".json", ids[0] + ".wtl"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived retention GC (err %v)", name, err)
		}
	}
	for _, id := range ids[1:] {
		if _, err := os.Stat(filepath.Join(dir, id+".wtl")); err != nil {
			t.Errorf("retained sweep %s lost its store: %v", id, err)
		}
	}
	if got := metricValue(t, scrape(t, reg), "iobfleetd_sweeps_retired_total"); got != 1 {
		t.Errorf("retired_total %v, want 1", got)
	}

	// Park a long sweep mid-run via drain: interrupted, with a resumable
	// checkpoint on disk.
	longSpec := sweep.Spec{Wearers: 6000, Seed: 9, DurSeconds: 10, Workers: 2, BlockSize: 16}
	long, err := m.submit(longSpec)
	if err != nil {
		t.Fatal(err)
	}
	sw, _ := m.get(long.ID)
	deadline := time.Now().Add(60 * time.Second)
	for sw.snapshot().Records == 0 {
		if st := sw.snapshot(); st.terminal() {
			t.Fatalf("long sweep finished before the drain: %+v (grow the spec)", st)
		}
		if time.Now().After(deadline) {
			t.Fatal("long sweep never committed progress")
		}
		time.Sleep(2 * time.Millisecond)
	}
	m.beginDrain()
	if st := sw.snapshot(); st.Status != statusInterrupted {
		t.Fatalf("drained sweep parked %q, want interrupted", st.Status)
	}
	storePath := filepath.Join(dir, long.ID+".wtl")
	for _, p := range []string{storePath, telemetry.CheckpointPath(storePath)} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("interrupted sweep missing resumable state %s: %v", p, err)
		}
	}

	// Restart with the same -retain: the boot-time prune must spare the
	// re-queued interrupted sweep and everything resumable about it.
	m2, err := newManager(dir, 2, obs.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m2.retain = 2
	m2.pruneRetained()
	sw2, ok := m2.get(long.ID)
	if !ok || sw2.snapshot().Status != statusQueued {
		t.Fatalf("interrupted sweep recovered as %+v, want re-queued", sw2.snapshot())
	}
	for _, p := range []string{storePath, telemetry.CheckpointPath(storePath)} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("retention GC ate resumable state %s: %v", p, err)
		}
	}

	// And the spared state must actually be usable: resume to done with
	// the full population accounted for.
	m2.start("http://unused.invalid")
	defer m2.beginDrain()
	done := awaitSweep(t, m2, long.ID, statusDone, 300*time.Second)
	if done.Records != longSpec.Wearers {
		t.Errorf("resumed sweep records %d, want %d", done.Records, longSpec.Wearers)
	}
	// Its completion makes three terminal sweeps again; the oldest done
	// sweep (ids[1]) rotates out.
	awaitRetired(t, m2, 1)
	if _, ok := m2.get(ids[1]); ok {
		t.Errorf("sweep %s still registered after the resumed sweep pushed it past -retain", ids[1])
	}
	if _, err := os.Stat(filepath.Join(dir, ids[1]+".wtl")); !os.IsNotExist(err) {
		t.Errorf("%s.wtl survived retention GC (err %v)", ids[1], err)
	}
}
