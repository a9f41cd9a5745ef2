package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"wiban/internal/obs"
	"wiban/internal/sweep"
	"wiban/internal/telemetry"
)

// startManager runs an in-process daemon behind an httptest server,
// its mux wrapped by wrap (nil serves the mux as is). The cleanup
// drains the runners before closing the server.
func startManager(t *testing.T, slots int, backends []string, wrap func(*http.ServeMux) http.Handler) (*manager, *httptest.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	m, err := newManager(t.TempDir(), slots, reg, backends)
	if err != nil {
		t.Fatal(err)
	}
	mux := newMux(m, reg)
	var h http.Handler = mux
	if wrap != nil {
		h = wrap(mux)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(func() {
		m.beginDrain()
		srv.Close()
	})
	return m, srv
}

// getStore GETs a sweep's store feed with the raw query string q.
func getStore(t *testing.T, base, id, q string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(base + "/api/sweeps/" + id + "/store" + q)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestStoreFeed pins GET /api/sweeps/{id}/store, the coordinator's whole
// poll answer: the committed prefix from ?from= plus the sweep's state
// in headers, an empty 200 before the first commit, and 404 only for an
// unknown sweep.
func TestStoreFeed(t *testing.T) {
	m, srv := startManager(t, 1, nil, nil)

	if resp, _ := getStore(t, srv.URL, "s999999", ""); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep: %d, want 404", resp.StatusCode)
	}

	// Runners are not started yet, so the sweep stays queued. Series
	// sampling gives the finished store a trailing index frame.
	spec := sweep.Spec{Wearers: 40, Seed: 5, DurSeconds: 4, SeriesSeconds: 1, BlockSize: 8}
	st, err := m.submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := getStore(t, srv.URL, st.ID, "")
	if resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Fatalf("queued sweep: %d with %d bytes, want 200 and empty", resp.StatusCode, len(body))
	}
	for hdr, want := range map[string]string{
		"X-Next-Wearer":        "-1",
		"X-Committed-Offset":   "0",
		"X-Sweep-Status":       statusQueued,
		"X-Iobfleetd-Instance": m.instance,
	} {
		if got := resp.Header.Get(hdr); got != want {
			t.Errorf("queued sweep %s = %q, want %q", hdr, got, want)
		}
	}

	m.start(srv.URL)
	awaitSweep(t, m, st.ID, statusDone, 60*time.Second)
	file, err := os.ReadFile(m.storePath(st.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp, full := getStore(t, srv.URL, st.ID, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("done sweep: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Sweep-Status"); got != statusDone {
		t.Errorf("done sweep X-Sweep-Status %q", got)
	}
	if got := resp.Header.Get("X-Next-Wearer"); got != strconv.Itoa(spec.Wearers) {
		t.Errorf("done sweep X-Next-Wearer %q, want %d", got, spec.Wearers)
	}
	if got := resp.Header.Get("X-Committed-Offset"); got != strconv.Itoa(len(full)) {
		t.Errorf("X-Committed-Offset %q for a %d-byte body", got, len(full))
	}
	// The feed is the file minus its trailing index frame: a strict prefix
	// that scan-resumes as a complete store ending on a frame boundary.
	if len(full) == 0 || len(full) >= len(file) || !bytes.Equal(full, file[:len(full)]) {
		t.Fatalf("feed is %d bytes, not a strict prefix of the %d-byte store", len(full), len(file))
	}
	prefix := filepath.Join(t.TempDir(), "prefix.wtl")
	if err := os.WriteFile(prefix, full, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := telemetry.Resume(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if w.Offset() != int64(len(full)) || w.NextWearer() != spec.Wearers {
		t.Errorf("served prefix resumes at offset %d, wearer %d; want %d, %d",
			w.Offset(), w.NextWearer(), len(full), spec.Wearers)
	}
	w.Abort()

	mid := len(full) / 2
	if _, body := getStore(t, srv.URL, st.ID, fmt.Sprintf("?from=%d", mid)); !bytes.Equal(body, full[mid:]) {
		t.Errorf("from=%d served %d bytes, want the %d-byte suffix", mid, len(body), len(full)-mid)
	}
	if resp, body := getStore(t, srv.URL, st.ID, fmt.Sprintf("?from=%d", len(full)+100)); resp.StatusCode != http.StatusOK || len(body) != 0 {
		t.Errorf("from past the committed offset: %d with %d bytes, want 200 and empty", resp.StatusCode, len(body))
	}
	for _, q := range []string{"?from=-1", "?from=abc"} {
		if resp, _ := getStore(t, srv.URL, st.ID, q); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestSubmitQueueFullIs503 pins the back-pressure answer: a full queue
// is transient, so POST /api/sweeps answers 503 and a coordinator
// rotates to another backend instead of failing the sharded sweep as it
// would on a 400.
func TestSubmitQueueFullIs503(t *testing.T) {
	m, srv := startManager(t, 1, nil, nil)
	m.queueCap = 1 // runners never start, so one sweep fills the queue
	if err := m.postJSON(srv.URL+"/api/sweeps", minimalSpec(1), nil); err != nil {
		t.Fatal(err)
	}
	err := m.postJSON(srv.URL+"/api/sweeps", minimalSpec(2), nil)
	se, ok := err.(*httpStatusError)
	if !ok || se.code != http.StatusServiceUnavailable {
		t.Fatalf("over-cap POST: %v, want HTTP 503", err)
	}
	if permanent(err) {
		t.Error("a full queue classified as a permanent rejection")
	}
}

// routeCounter counts requests per ServeMux route pattern.
type routeCounter struct {
	mux *http.ServeMux
	mu  sync.Mutex
	n   map[string]int
}

func (c *routeCounter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	_, pattern := c.mux.Handler(r)
	c.mu.Lock()
	c.n[pattern]++
	c.mu.Unlock()
	c.mux.ServeHTTP(w, r)
}

// TestShardProtocolRequests pins the coordinator's conversation with its
// backends to three request kinds — POST to dispatch, GET store to
// replicate and learn state, DELETE to cancel — by counting every
// request two in-process backends receive during a coupled 2-shard
// sweep: no readiness probe, no state GET, and exactly one loads and
// one dispatch POST per shard.
func TestShardProtocolRequests(t *testing.T) {
	counters := make([]*routeCounter, 2)
	bases := make([]string, 2)
	for i := range counters {
		counters[i] = &routeCounter{n: make(map[string]int)}
		bm, srv := startManager(t, 2, nil, func(mux *http.ServeMux) http.Handler {
			counters[i].mux = mux
			return counters[i]
		})
		bm.start(srv.URL)
		bases[i] = srv.URL
	}
	co, srv := startManager(t, 1, bases, nil)
	co.start(srv.URL)

	spec := sweep.Spec{Wearers: 120, Seed: 21, DurSeconds: 10, Workers: 2, BLEFraction: 0.5,
		Cells: 8, Feedback: true, MaxIters: 64, TolPPM: 200, BlockSize: 16, Shards: 2}
	st, err := co.submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := awaitSweep(t, co, st.ID, statusDone, 120*time.Second)

	total := make(map[string]int)
	for i, c := range counters {
		c.mu.Lock()
		for route, n := range c.n {
			total[route] += n
			t.Logf("backend %d: %4d %s", i, n, route)
		}
		c.mu.Unlock()
	}
	for route, want := range map[string]int{
		"GET /healthz":            0,
		"GET /api/sweeps/{id}":    0,
		"POST /api/loads":         2,
		"POST /api/sweeps":        2,
		"DELETE /api/sweeps/{id}": 0,
	} {
		if total[route] != want {
			t.Errorf("%s: %d requests, want %d", route, total[route], want)
		}
	}

	single := spec
	single.Shards = 0
	if err := single.Normalize(); err != nil {
		t.Fatal(err)
	}
	f, _, err := single.Build()
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := f.Run()
	if err != nil {
		t.Fatal(err)
	}
	if done.Fingerprint != rep.Fingerprint() {
		t.Errorf("sharded fingerprint %q != in-process %q", done.Fingerprint, rep.Fingerprint())
	}
}
