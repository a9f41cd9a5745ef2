package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// client is the benchmark's single-process HTTP client. Every call it
// makes runs inside a span when tracing is on.
type client struct {
	http *http.Client
	tr   *tracer
}

func newClient(tr *tracer) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}},
		tr:   tr,
	}
}

// opTimeout bounds any single request, progress streams included.
const opTimeout = 120 * time.Second

// do sends one request inside a span named name and returns the response
// with its body fully read.
func (c *client) do(name, sweep string, req *http.Request) (*http.Response, []byte, error) {
	id := c.tr.begin(name, sweep, 0)
	defer c.tr.end(id)
	ctx, cancel := context.WithTimeout(req.Context(), opTimeout)
	defer cancel()
	resp, err := c.http.Do(req.WithContext(ctx))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode/100 != 2 {
		return resp, body, fmt.Errorf("%s %s: HTTP %d: %s", req.Method, req.URL.Path, resp.StatusCode, strings.TrimSpace(string(body)))
	}
	return resp, body, nil
}

func (c *client) get(name, sweep, url string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, nil, err
	}
	return c.do(name, sweep, req)
}

func (c *client) healthy(base string) bool {
	_, _, err := c.get("http.healthz", "", base+"/healthz")
	return err == nil
}

func (c *client) liveBackends(base string) (int, error) {
	_, body, err := c.get("http.backends", "", base+"/api/backends")
	if err != nil {
		return 0, err
	}
	return decodeMembers(bytes.NewReader(body))
}

// metrics scrapes and parses a daemon's /metrics.
func (c *client) metrics(base, role string) (scrape, error) {
	_, body, err := c.get("http.metrics."+role, "", base+"/metrics")
	if err != nil {
		return nil, err
	}
	return parseProm(string(body))
}

// totalAlloc reads the daemon's cumulative heap allocation (the Go
// runtime's MemStats.TotalAlloc) off its heap profile's text form.
func (c *client) totalAlloc(base, role string) (float64, error) {
	_, body, err := c.get("http.heap."+role, "", base+"/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TotalAlloc = "); ok {
			return strconv.ParseFloat(strings.TrimSpace(rest), 64)
		}
	}
	return 0, fmt.Errorf("%s: no TotalAlloc in heap profile", role)
}

// sweepState is the part of a sweep's state and progress events the
// benchmark reads.
type sweepState struct {
	ID          string `json:"id"`
	Status      string `json:"status"`
	Records     int    `json:"records"`
	Fingerprint string `json:"fingerprint"`
	Error       string `json:"error"`
	Final       bool   `json:"final"`
}

// sweepRun is one sweep as the client saw it.
type sweepRun struct {
	index int       // position in the workload's spec sequence
	spec  sweepSpec // as submitted
	id    string
	final sweepState

	submitted   time.Time     // just before POST /api/sweeps
	submitRTT   time.Duration // POST round trip
	firstRecord time.Duration // submit → first progress event with records > 0 (0 if none seen)
	latency     time.Duration // submit → final event

	// The committed store as downloaded after the window: its size and
	// SHA-256, so the bytes need not stay in memory.
	storeSize int64
	storeSum  [32]byte
	err       error // first failed check
}

// runSweep submits spec and waits on the progress stream for the final
// event; the sweep's latency runs from just before the submit to the
// arrival of that event.
func (c *client) runSweep(base string, index int, spec sweepSpec) *sweepRun {
	run := &sweepRun{index: index, spec: spec}
	raw, err := json.Marshal(spec)
	if err != nil {
		run.err = err
		return run
	}
	req, err := http.NewRequest(http.MethodPost, base+"/api/sweeps", bytes.NewReader(raw))
	if err != nil {
		run.err = err
		return run
	}
	req.Header.Set("Content-Type", "application/json")
	run.submitted = time.Now()
	_, body, err := c.do("http.submit", "", req)
	run.submitRTT = time.Since(run.submitted)
	if err != nil {
		run.err = err
		return run
	}
	var st sweepState
	if err := json.Unmarshal(body, &st); err != nil {
		run.err = fmt.Errorf("submit answer: %w", err)
		return run
	}
	run.id = st.ID
	run.final, run.err = c.progress(base, run)
	run.latency = time.Since(run.submitted)
	if run.err == nil {
		run.err = run.checkFinal()
	}
	return run
}

// progress follows GET /api/sweeps/{id}/progress until the final event.
func (c *client) progress(base string, run *sweepRun) (sweepState, error) {
	id := c.tr.begin("http.progress", run.id, 0)
	defer c.tr.end(id)
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/api/sweeps/"+run.id+"/progress", nil)
	if err != nil {
		return sweepState{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return sweepState{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return sweepState{}, fmt.Errorf("progress: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev sweepState
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return sweepState{}, fmt.Errorf("progress event: %w", err)
		}
		if run.firstRecord == 0 && ev.Records > 0 {
			run.firstRecord = time.Since(run.submitted)
		}
		if ev.Final {
			return ev, nil
		}
	}
	if err := sc.Err(); err != nil {
		return sweepState{}, err
	}
	return sweepState{}, fmt.Errorf("progress stream ended without a final event")
}

// checkFinal holds the final event to what the spec asked for.
func (r *sweepRun) checkFinal() error {
	switch {
	case r.final.Status != "done":
		return fmt.Errorf("sweep %s ended %q: %s", r.id, r.final.Status, r.final.Error)
	case r.final.Records != r.spec.Wearers:
		return fmt.Errorf("sweep %s: %d records, want %d", r.id, r.final.Records, r.spec.Wearers)
	case len(r.final.Fingerprint) < 16:
		return fmt.Errorf("sweep %s: no fingerprint", r.id)
	}
	return nil
}

// fetchStore downloads a sweep's committed store bytes from offset from.
// It returns the bytes and the committed offset the daemon reported.
func (c *client) fetchStore(base, sweep string, from int64) ([]byte, int64, error) {
	url := base + "/api/sweeps/" + sweep + "/store"
	if from > 0 {
		url += "?from=" + strconv.FormatInt(from, 10)
	}
	resp, body, err := c.get("http.store", sweep, url)
	if err != nil {
		return nil, 0, err
	}
	off, err := strconv.ParseInt(resp.Header.Get("X-Committed-Offset"), 10, 64)
	if err != nil {
		return nil, 0, fmt.Errorf("store %s: bad X-Committed-Offset: %w", sweep, err)
	}
	return body, off, nil
}

// setStore records a sweep's committed store bytes.
func (r *sweepRun) setStore(b []byte) {
	r.storeSize, r.storeSum = int64(len(b)), sha256.Sum256(b)
}
