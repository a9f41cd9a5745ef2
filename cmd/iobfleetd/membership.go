package main

// The fleet membership layer. PR 8's shard dispatch selected backends
// from a static -backends list, so a dead backend had to be resurrected
// or hand-replaced at the same URL. Membership makes the fleet live:
// backends POST /api/backends to register (and re-POST on a heartbeat
// interval), the coordinator expires entries that fall silent past a
// TTL, and the table persists in -data so a restarted coordinator still
// knows its fleet before the first heartbeat arrives. Static -backends
// entries remain supported as permanent members that never expire.
//
// Expiry is a selection gate, not a kill switch: a shard already
// dispatched to a backend keeps streaming from it for as long as the
// backend answers, even after its membership entry expires — the
// supervisor's host list is sticky, and only NEW dispatch decisions
// consult the live set. That is what keeps a heartbeat hiccup from
// cancelling in-flight work.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"wiban/internal/obs"
)

// member is one row of the membership table. Static members come from
// the -backends flag and never expire; dynamic members arrive over
// POST /api/backends and live for the coordinator's -expire TTL past
// their last heartbeat. expired is in-memory bookkeeping so the flip is
// counted exactly once; the entry itself stays in the table (a later
// heartbeat revives it, and its presence records that a fleet was
// configured — which is what keeps selection from silently falling back
// to loopback self-dispatch when every backend is down).
type member struct {
	URL      string    `json:"url"`
	Static   bool      `json:"static,omitempty"`
	LastSeen time.Time `json:"last_seen,omitempty"`

	expired bool
}

// memberState is the API view of a member: the table row plus the
// derived liveness the dispatch path gates on.
type memberState struct {
	member
	Live bool `json:"live"`
}

// membership is the coordinator's backend table. All access is guarded
// by mu; liveness is evaluated lazily against now() on every read, so
// there is no sweeper goroutine to leak or race.
type membership struct {
	mu   sync.Mutex
	path string // persisted table ("" = memory only); never matches the s*.json sidecar glob
	ttl  time.Duration
	now  func() time.Time

	entries map[string]*member

	// Wired by registerMetrics after construction; nil until then, so
	// every bump goes through the inc helper.
	registrations *obs.Counter
	expirations   *obs.Counter
}

const defaultExpiry = 10 * time.Second

// newMembership builds the table with the static -backends entries and,
// when path names an existing file, the dynamic members a previous
// process persisted (their staleness is re-judged against the TTL on
// first read, so a long-dead backend does not resurrect as live).
func newMembership(path string, static []string) (*membership, error) {
	ms := &membership{
		path:    path,
		ttl:     defaultExpiry,
		now:     time.Now,
		entries: make(map[string]*member),
	}
	if err := ms.load(); err != nil {
		return nil, err
	}
	for _, b := range static {
		ms.entries[b] = &member{URL: b, Static: true}
	}
	return ms, nil
}

// load reads the persisted dynamic members. A missing file is a fresh
// start; a corrupt one is an error — membership is recovery state, and
// silently dropping it would strand a fleet that registered before the
// coordinator crashed.
func (ms *membership) load() error {
	if ms.path == "" {
		return nil
	}
	raw, err := os.ReadFile(ms.path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var doc struct {
		Backends []*member `json:"backends"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return fmt.Errorf("membership table %s: %w", ms.path, err)
	}
	for _, m := range doc.Backends {
		if m.URL == "" {
			return fmt.Errorf("membership table %s: entry with no url", ms.path)
		}
		m.Static = false
		ms.entries[m.URL] = m
	}
	return nil
}

// persistLocked writes the dynamic half of the table atomically, the
// same durability discipline as the sweep sidecars. Static
// entries are re-derived from the -backends flag each start, so they
// are deliberately not persisted. Caller holds mu.
func (ms *membership) persistLocked() error {
	if ms.path == "" {
		return nil
	}
	var doc struct {
		Backends []*member `json:"backends"`
	}
	for _, m := range ms.entries {
		if !m.Static {
			doc.Backends = append(doc.Backends, m)
		}
	}
	sort.Slice(doc.Backends, func(i, j int) bool { return doc.Backends[i].URL < doc.Backends[j].URL })
	raw, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(ms.path, append(raw, '\n'))
}

func inc(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// normalizeBackendURL validates and canonicalizes a registration URL:
// absolute http(s), a host, no trailing slash — the exact base-URL form
// dispatch concatenates endpoint paths onto.
func normalizeBackendURL(raw string) (string, error) {
	raw = strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("backend url %q: %w", raw, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return "", fmt.Errorf("backend url %q: want an absolute http(s) base URL", raw)
	}
	return raw, nil
}

// register upserts a dynamic member (or refreshes a static one). Every
// call stamps LastSeen — registration and heartbeat are the same verb —
// but only a new or revived entry counts as a registration.
func (ms *membership) register(raw string) (memberState, error) {
	u, err := normalizeBackendURL(raw)
	if err != nil {
		return memberState{}, err
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	now := ms.now()
	m, ok := ms.entries[u]
	if !ok {
		m = &member{URL: u}
		ms.entries[u] = m
		inc(ms.registrations)
	} else if ms.expireLocked(m, now) {
		m.expired = false
		inc(ms.registrations)
	}
	m.LastSeen = now
	if err := ms.persistLocked(); err != nil {
		return memberState{}, err
	}
	return memberState{member: *m, Live: true}, nil
}

// deregister removes a member — graceful goodbye from a draining
// backend, or an operator pulling a static entry out of rotation for
// the rest of this process's life.
func (ms *membership) deregister(raw string) bool {
	u, err := normalizeBackendURL(raw)
	if err != nil {
		return false
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if _, ok := ms.entries[u]; !ok {
		return false
	}
	delete(ms.entries, u)
	if err := ms.persistLocked(); err != nil {
		// The entry is gone from memory either way; a stale file only
		// revives it on restart, until its TTL expires it again.
		fmt.Fprintf(os.Stderr, "iobfleetd: persisting membership: %v\n", err)
	}
	return true
}

// expireLocked reports whether m is past its TTL, counting the flip to
// expired exactly once. Caller holds mu.
func (ms *membership) expireLocked(m *member, now time.Time) bool {
	if m.Static || now.Sub(m.LastSeen) <= ms.ttl {
		return false
	}
	if !m.expired {
		m.expired = true
		inc(ms.expirations)
	}
	return true
}

// live returns the selectable backend URLs — static members plus every
// dynamic member inside its TTL — in sorted order, so round-robin
// placement is deterministic for a given fleet. configured reports
// whether the table holds entries at all (live or expired): a fleet that
// was configured but is momentarily all-dead should make dispatch wait
// for a heartbeat, not silently fall back to loopback.
func (ms *membership) live() (urls []string, configured bool) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	now := ms.now()
	for _, m := range ms.entries {
		configured = true
		if !ms.expireLocked(m, now) {
			urls = append(urls, m.URL)
		}
	}
	sort.Strings(urls)
	return urls, configured
}

// list returns every table row with its derived liveness, sorted by
// URL — the GET /api/backends payload.
func (ms *membership) list() []memberState {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	now := ms.now()
	out := make([]memberState, 0, len(ms.entries))
	for _, m := range ms.entries {
		out = append(out, memberState{member: *m, Live: !ms.expireLocked(m, now)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

// counts returns (total entries, live entries) for the membership
// gauges in one lock acquisition.
func (ms *membership) counts() (total, live int) {
	ms.mu.Lock()
	defer ms.mu.Unlock()
	now := ms.now()
	for _, m := range ms.entries {
		total++
		if !ms.expireLocked(m, now) {
			live++
		}
	}
	return total, live
}

// heartbeat keeps this daemon registered with one coordinator: an
// immediate POST /api/backends, then one per interval, until stop
// closes — at which point it deregisters best-effort so the
// coordinator stops selecting a backend that is about to drain (its
// POSTs would 503 anyway; this just makes goodbye explicit).
// Registration failures are retried on the next tick: a coordinator
// restart loses nothing but one beat.
func heartbeat(client *http.Client, coordinator, self string, interval time.Duration, stop <-chan struct{}) {
	body, _ := json.Marshal(map[string]string{"url": self})
	post := func() {
		resp, err := client.Post(coordinator+"/api/backends", "application/json", strings.NewReader(string(body)))
		if err != nil {
			return
		}
		resp.Body.Close()
	}
	post()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			req, err := http.NewRequest(http.MethodDelete,
				coordinator+"/api/backends?url="+url.QueryEscape(self), nil)
			if err == nil {
				if resp, err := client.Do(req); err == nil {
					resp.Body.Close()
				}
			}
			return
		case <-tick.C:
			post()
		}
	}
}
