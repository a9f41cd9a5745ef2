package main

// The coordinator half of the shard protocol. A sweep submitted with a
// shards field splits into contiguous wearer-range sub-sweeps dispatched
// to backend daemons (-backends, or this daemon itself) over the ordinary
// HTTP API. Coupled sweeps run two rounds: every shard first gathers its
// range's offered loads (POST /api/loads), the coordinator merges the
// partial tables — integer sums, so any partition merges bit-exactly —
// and, in feedback mode, runs the one deterministic equilibrium solve;
// the dispatch round then ships each shard its window of the solved
// results. Shard stores replicate back block by block as they commit and
// merge into one store bit-identical to a single-process run. Series
// sampling (series_seconds) rides the same protocol unchanged: each
// backend commits record+series frame pairs in one write, so the
// committed-prefix replication boundary (X-Committed-Offset) always
// sits after a complete pair, and telemetry.MergeShards re-pairs and
// re-encodes the samples at the merged block boundaries — the merged
// series store, trailing query index included, is byte-identical too.
//
// Fault model: a backend lost mid-shard is re-dispatched — to itself
// after a restart (the label finds the recovered sweep, which resumes
// from its local checkpoint) or to a replacement backend (which pulls the
// coordinator's partial copy as its seed store). Either way the shard's
// byte stream continues exactly where replication stopped, because every
// backend executing a shard writes the identical byte sequence.
//
// That same determinism licenses work-stealing: a shard whose committed
// progress stalls past -steal-after gets a speculative second copy on
// another live backend. Both copies write the identical byte stream, so
// the supervisor replicates from whichever answers, the first copy to
// reach committed-complete wins, and the loser is cancelled (DELETE) —
// the merged store cannot tell the difference. Backends come from the
// live membership table (static -backends entries plus dynamically
// registered daemons).
//
// The whole conversation with a backend is three requests: POST
// (/api/loads or /api/sweeps — its own readiness probe, since a draining
// backend refuses it with 503), GET /api/sweeps/{id}/store (replication
// and the sub-sweep's state in one answer), and DELETE (cancel).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"wiban/internal/fleet"
	"wiban/internal/spectrum"
	"wiban/internal/sweep"
	"wiban/internal/telemetry"
	"wiban/internal/units"
)

// shardPollInterval paces the supervisor's store-feed loop against a
// healthy backend; retries after a backend error back off separately.
const shardPollInterval = 50 * time.Millisecond

// loadsResponse is the shard side's answer to POST /api/loads: the
// range's partial per-cell load table and, in feedback mode, its members
// in range order.
type loadsResponse struct {
	Loads   []spectrum.CellLoad `json:"loads"`
	Members []spectrum.Member   `json:"members,omitempty"`
}

// shardRanges splits [0, wearers) into shards contiguous ranges, sizes
// differing by at most one (the first wearers%shards ranges get the extra
// wearer). Deterministic, so a restarted coordinator re-derives the same
// tiling.
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

// shardSub derives shard k's sub-spec: the same sweep identity with the
// shard's wearer range and no coordinator knob. The loads round sends it
// bare; the dispatch round adds Label, SeedStoreURL and Presolved.
func shardSub(spec sweep.Spec, rng [2]int) sweep.Spec {
	sub := spec
	sub.Shards = 0
	sub.FirstWearer = rng[0]
	sub.EndWearer = rng[1]
	if sub.EndWearer == sub.Wearers {
		sub.EndWearer = 0 // the canonical full-range spelling Spec.Normalize uses
	}
	return sub
}

func (m *manager) storePath(id string) string { return filepath.Join(m.dir, id+".wtl") }

func (m *manager) shardPath(id string, k int) string {
	return filepath.Join(m.dir, fmt.Sprintf("%s.shard%d.wtl", id, k))
}

// backendFor is shard k's dispatch target on the given attempt: shards
// spread round-robin over the live membership (sorted, so placement is
// deterministic for a given fleet) and rotate on failure. With no
// membership entries at all every shard loops back to this daemon
// itself; with entries known but none currently live it returns "" and
// the caller waits for a heartbeat — a fleet that is momentarily
// all-dead must not silently collapse into loopback self-dispatch.
func (m *manager) backendFor(k, attempt int) string {
	live, configured := m.members.live()
	if len(live) == 0 {
		if configured {
			return ""
		}
		return m.selfBase
	}
	return live[(k+attempt)%len(live)]
}

// drained reports whether the daemon began draining; pause sleeps without
// outliving a drain.
func (m *manager) drained() bool {
	select {
	case <-m.drain:
		return true
	default:
		return false
	}
}

// pause sleeps for d without outliving a drain or the sweep's
// cancellation — a pending backoff timer must never delay either. A nil
// cancel channel (contexts without a sweep) simply never fires.
func (m *manager) pause(d time.Duration, cancel <-chan struct{}) {
	select {
	case <-m.drain:
	case <-cancel:
	case <-time.After(d):
	}
}

// backoffDelay is the retry pacing after a backend error: exponential
// from 50ms to a 500ms ceiling, jittered uniformly over [cap/2, cap) so
// a fleet of supervisors losing the same backend re-probes staggered
// instead of in lockstep.
func backoffDelay(attempt int) time.Duration {
	d := 50 * time.Millisecond
	for i := 0; i < attempt && d < 500*time.Millisecond; i++ {
		d *= 2
	}
	if d > 500*time.Millisecond {
		d = 500 * time.Millisecond
	}
	return d/2 + rand.N(d/2)
}

// httpStatusError is a non-2xx backend answer, kept typed so dispatch can
// tell a permanent rejection (a 400 is deterministic — the same spec will
// be rejected again) from a transient one worth retrying elsewhere.
type httpStatusError struct {
	code int
	msg  string
}

func (e *httpStatusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.msg) }

func permanent(err error) bool {
	var se *httpStatusError
	return errors.As(err, &se) && se.code == http.StatusBadRequest
}

func (m *manager) postJSON(url string, in, out any) error {
	raw, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := m.client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		return &httpStatusError{resp.StatusCode, strings.TrimSpace(string(body))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// postRetrying POSTs in to route on shard k's backend, rotating through
// the fleet until one accepts, and returns the accepting backend. The
// POST is its own readiness probe: a draining backend refuses it with
// 503, which rotates like any transport error. A 400 is a deterministic
// spec rejection and fails the shard. *attempt is the caller's rotation
// counter; every try consumes one, so a later re-dispatch starts at the
// backend after the last one tried.
func (m *manager) postRetrying(k int, attempt *int, route string, in, out any, cancel <-chan struct{}) (string, error) {
	for {
		select {
		case <-cancel:
			return "", errCancelled
		default:
		}
		if m.drained() {
			return "", errDrained
		}
		try := *attempt
		*attempt++
		if b := m.backendFor(k, try); b != "" {
			err := m.postJSON(b+route, in, out)
			if err == nil {
				return b, nil
			}
			if permanent(err) {
				return "", fmt.Errorf("shard %d rejected by %s%s: %w", k, b, route, err)
			}
		}
		m.metrics.shardRetries.Inc()
		m.pause(backoffDelay(try), cancel)
	}
}

// runSharded executes a coordinator sweep: the loads round across the
// shard backends (coupled sweeps only), the shard sub-sweeps themselves
// with their stores replicated back as they commit, then the merge into
// one full-population store. The merged store, its fingerprint and its
// trailing index are bit-identical to a single-process run of the same
// spec: phase 1 merges commutative integer tables, the solve is a pure
// function of the concatenated members, phase-2 records are pure
// functions of (seed, wearer, tables), and the merge re-encodes the
// identical record sequence — series samples re-paired at the merged
// block boundaries — through the same Writer. A failed merge removes
// its partial output (Writer.Discard), so the shard partials on disk
// stay the only recovery state.
func (m *manager) runSharded(sw *job, spec sweep.Spec, storePath string) {
	start := time.Now()
	ranges := shardRanges(spec.Wearers, spec.Shards)
	cancel := sw.cancelChan()

	var (
		loads []spectrum.CellLoad
		res   *spectrum.Result
	)
	if spec.Cells > 0 {
		var err error
		if loads, res, err = m.gatherShards(spec, ranges, cancel); err != nil {
			switch {
			case errors.Is(err, errCancelled):
				m.finish(sw, statusCancelled, "")
			case errors.Is(err, errDrained):
				m.finish(sw, statusInterrupted, "")
			default:
				m.finish(sw, statusFailed, err.Error())
			}
			return
		}
	}

	// Parent progress is the sum of the shards' committed record counts,
	// re-published whenever any supervisor learns a new figure. Blocks and
	// bytes stay 0 until the merge — they describe the merged store.
	counts := make([]int, len(ranges))
	var cmu sync.Mutex
	progress := func(k, records int) {
		cmu.Lock()
		counts[k] = records
		total := 0
		for _, c := range counts {
			total += c
		}
		cmu.Unlock()
		sw.mu.Lock()
		if total != sw.st.Records {
			sw.st.Records = total
			sw.publish(false)
		}
		sw.mu.Unlock()
	}

	paths := make([]string, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for k := range ranges {
		paths[k] = m.shardPath(sw.st.ID, k)
		sub := shardSub(spec, ranges[k])
		sub.Label = sw.st.ID + "/shard" + strconv.Itoa(k)
		sub.SeedStoreURL = fmt.Sprintf("%s/api/sweeps/%s/shards/%d/store", m.selfBase, sw.st.ID, k)
		if spec.Cells > 0 {
			pre := &sweep.Presolved{Loads: loads}
			if res != nil {
				pre.Eq = &sweep.Equilibrium{
					Table: res.Table().Export(),
					Iters: res.ExportIters(),
					Own:   res.ExportOwn(ranges[k][0], ranges[k][1]),
				}
			}
			sub.Presolved = pre
		}
		wg.Add(1)
		go func(k int, sub sweep.Spec) {
			defer wg.Done()
			errs[k] = m.superviseShard(sub, k, paths[k], cancel, progress)
		}(k, sub)
	}
	wg.Wait()

	removePartials := func() {
		for _, p := range paths {
			os.Remove(p)
			os.Remove(telemetry.CheckpointPath(p))
		}
	}
	var failErr error
	drained, cancelled := false, false
	for _, err := range errs {
		switch {
		case errors.Is(err, errCancelled):
			cancelled = true
		case errors.Is(err, errDrained):
			drained = true
		case err != nil && failErr == nil:
			failErr = err
		}
	}
	if failErr != nil {
		// Failed is terminal and never resumed: the shard partials are
		// garbage, not recovery state.
		m.finish(sw, statusFailed, failErr.Error())
		removePartials()
		return
	}
	if cancelled {
		m.finish(sw, statusCancelled, "")
		removePartials()
		return
	}
	if drained {
		// Partials stay on disk: the restarted coordinator re-dispatches by
		// label and resumes replication exactly where it stopped — unless a
		// DELETE arrived during the drain, in which case the sweep parked
		// cancelled and the partials are garbage after all.
		if m.finish(sw, statusInterrupted, "") == statusCancelled {
			removePartials()
		}
		return
	}

	agg := fleet.NewStreamAggregator(units.Duration(spec.DurSeconds))
	blocks, size, err := telemetry.MergeShards(storePath, paths, agg.Consume)
	if err != nil {
		m.finish(sw, statusFailed, err.Error())
		return
	}
	m.metrics.blocksWritten.Add(float64(blocks))
	m.metrics.bytesWritten.Add(float64(size))
	m.metrics.sweepSeconds.Observe(time.Since(start).Seconds())
	sw.mu.Lock()
	sw.st.Fingerprint = agg.Report().Fingerprint()
	sw.st.Records = agg.Wearers()
	sw.st.Blocks = blocks
	sw.st.Bytes = size
	sw.mu.Unlock()
	m.finish(sw, statusDone, "")
	removePartials()
}

// gatherShards is the coupled protocol's loads round: every shard reports
// its range's partial table concurrently, the coordinator merges them
// and — in feedback mode — concatenates the member windows by absolute
// index and runs the one deterministic equilibrium solve. The merged
// table and solution are bit-identical to an in-process phase 1 because
// the table sums are commutative integers and Solve is a pure function.
func (m *manager) gatherShards(spec sweep.Spec, ranges [][2]int, cancel <-chan struct{}) ([]spectrum.CellLoad, *spectrum.Result, error) {
	type gather struct {
		resp loadsResponse
		err  error
	}
	results := make([]gather, len(ranges))
	var wg sync.WaitGroup
	for k := range ranges {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			attempt := 0
			_, results[k].err = m.postRetrying(k, &attempt, "/api/loads", shardSub(spec, ranges[k]), &results[k].resp, cancel)
		}(k)
	}
	wg.Wait()

	total, err := spectrum.NewLoadTable(spec.Cells)
	if err != nil {
		return nil, nil, err
	}
	var members []spectrum.Member
	if spec.Feedback {
		members = make([]spectrum.Member, spec.Wearers)
	}
	for k := range results {
		r := &results[k]
		if r.err != nil {
			return nil, nil, r.err
		}
		part, err := spectrum.ImportTable(spec.Cells, r.resp.Loads)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d loads: %w", k, err)
		}
		if err := total.Merge(part); err != nil {
			return nil, nil, err
		}
		if members != nil {
			first, end := ranges[k][0], ranges[k][1]
			if len(r.resp.Members) != end-first {
				return nil, nil, fmt.Errorf("shard %d returned %d members for range [%d,%d)",
					k, len(r.resp.Members), first, end)
			}
			copy(members[first:end], r.resp.Members)
		}
	}
	loads := total.Export()
	if members == nil {
		return loads, nil, nil
	}
	solveStart := time.Now()
	eq := spectrum.Equilibrium{MaxIters: spec.MaxIters, TolPPM: spec.TolPPM}
	res, err := eq.Solve(spec.Cells, members)
	if err != nil {
		return nil, nil, fmt.Errorf("equilibrium phase: %w", err)
	}
	m.stats.Phase1SolveNS.Add(time.Since(solveStart).Nanoseconds())
	var iters int64
	for _, ci := range res.ExportIters() {
		iters += int64(ci.Iters)
	}
	m.stats.EquilibriumIters.Add(iters)
	m.stats.EquilibriumCells.Add(int64(spec.Cells))
	return loads, res, nil
}

// shardHost is one backend currently executing a shard's sub-sweep.
// Normally there is exactly one; a straggler gets a speculative second
// copy, and the first to reach committed-complete wins. instance pins
// the daemon process the sub-sweep was observed on, so a SIGKILL +
// restart that fits inside one poll interval — every request before and
// after it succeeding — is still detected as a loss.
type shardHost struct {
	base     string
	id       string
	instance string
}

// superviseShard owns one shard from dispatch to full replication. It
// submits the sub-sweep (idempotently, by label) to a live backend,
// then polls its store feed, which appends each newly committed byte
// range to the local partial copy and reports the sub-sweep's state in
// the same answer. A backend lost or drained mid-shard is re-dispatched:
// a restarted backend finds the label in its recovered state and
// resumes from its own checkpoint; a replacement backend pulls the
// partial copy as its seed store. Both write the identical byte stream,
// so the partial only ever extends.
//
// Straggler stealing rides the same invariant: when the shard's
// committed progress stalls past stealAfter with a single host, a
// second copy of the identical sub-sweep is dispatched to another live
// backend and the supervisor replicates from whichever copy is ahead.
// The first host whose store is done AND fully replicated to the range
// end wins; every other copy is cancelled. The host list is sticky —
// membership expiry only gates NEW dispatch, so a heartbeat hiccup
// never drops a host that is still answering.
func (m *manager) superviseShard(sub sweep.Spec, k int, path string, cancel <-chan struct{}, progress func(k, records int)) error {
	local := prepPartial(path)
	first, end := sub.Range()
	var hosts []shardHost
	drop := func(i int) {
		hosts = append(hosts[:i], hosts[i+1:]...)
		m.metrics.shardRetries.Inc()
	}
	// cancelOthers disowns every copy but hosts[keep], best-effort — a
	// missed DELETE only wastes backend cycles, never correctness.
	cancelOthers := func(keep int) {
		for i, o := range hosts {
			if i != keep {
				m.cancelRemote(o.base, o.id)
			}
		}
	}
	attempt := 0
	records := 0
	lastAdvance := time.Now()
	for {
		select {
		case <-cancel:
			// The parent sweep was cancelled: disown every copy so no
			// backend keeps simulating for a coordinator that left.
			cancelOthers(-1)
			return errCancelled
		default:
		}
		if m.drained() {
			return errDrained
		}
		if len(hosts) == 0 {
			var st sweepState
			b, err := m.postRetrying(k, &attempt, "/api/sweeps", sub, &st, cancel)
			if err != nil {
				return err
			}
			hosts = append(hosts, shardHost{base: b, id: st.ID})
			m.metrics.shardsDispatched.Inc()
			lastAdvance = time.Now()
		}
		if m.stealAfter > 0 && len(hosts) == 1 && time.Since(lastAdvance) > m.stealAfter {
			// The speculative copy goes to the first live non-hosting
			// backend, in rotation order, that accepts the POST.
			live, _ := m.members.live()
			for i := range live {
				b := live[(k+attempt+i)%len(live)]
				var st sweepState
				if b != hosts[0].base && m.postJSON(b+"/api/sweeps", sub, &st) == nil {
					hosts = append(hosts, shardHost{base: b, id: st.ID})
					m.metrics.shardsDispatched.Inc()
					m.metrics.shardsStolen.Inc()
					break
				}
			}
			// Re-arm the deadline whether or not a target accepted: one
			// speculative copy per stall, not one per poll tick.
			lastAdvance = time.Now()
		}
		advanced := false
		for i := 0; i < len(hosts); i++ {
			p, err := m.fetchShard(&hosts[i], path, local)
			if err != nil {
				drop(i)
				i--
				continue
			}
			if p.status == statusFailed {
				// Deterministic execution: a failure on one host would fail
				// identically everywhere, so give up rather than re-dispatch.
				cancelOthers(i)
				return fmt.Errorf("shard %d failed on %s: %s", k, hosts[i].base, p.errMsg)
			}
			if p.n > 0 {
				local += p.n
				advanced = true
			}
			if p.next-first > records {
				records = p.next - first
				progress(k, records)
				advanced = true
			}
			switch p.status {
			case statusDone:
				if p.next >= end {
					// Committed-complete and fully replicated: this copy wins.
					cancelOthers(i)
					return nil
				}
				// A done status whose replicated store stops short of the
				// range end means the backend lost or pruned the store between
				// commit and fetch (retention, disk loss): drop the host and
				// re-dispatch rather than merge an incomplete partial.
				drop(i)
				i--
			case statusInterrupted, statusCancelled:
				// The backend parked the copy (its own drain, or an operator
				// DELETE): drop it — same label on a restart resumes it,
				// another backend seed-pulls the partial.
				drop(i)
				i--
			}
		}
		if advanced {
			lastAdvance = time.Now()
		}
		m.pause(shardPollInterval, cancel)
	}
}

// cancelRemote disowns one sub-sweep copy, best-effort: the losing side
// of a steal, or every copy of a cancelled parent. Failures are ignored
// — an unreachable backend's copy dies with it, and a live one's costs
// only cycles.
func (m *manager) cancelRemote(base, id string) {
	req, err := http.NewRequest(http.MethodDelete, base+"/api/sweeps/"+id, nil)
	if err != nil {
		return
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// prepPartial validates the local partial copy of a shard store,
// truncating any torn tail a kill left mid-append, and reports its
// trusted byte length (0 after discarding an unusable file). The
// checkpoint sidecar Resume writes is removed again: the supervisor
// appends raw fetched bytes past it, so a later restart must re-scan the
// file rather than trust a stale offset that would discard replicated
// blocks.
func prepPartial(path string) int64 {
	if st, err := os.Stat(path); err != nil || st.Size() == 0 {
		os.Remove(path)
		os.Remove(telemetry.CheckpointPath(path))
		return 0
	}
	w, err := telemetry.Resume(path)
	if err != nil {
		os.Remove(path)
		os.Remove(telemetry.CheckpointPath(path))
		return 0
	}
	size := w.Offset()
	w.Abort()
	os.Remove(telemetry.CheckpointPath(path))
	return size
}

// shardPoll is one answer of a backend's store feed: how many bytes it
// appended to the local partial, and the sub-sweep's state as the
// response headers report it.
type shardPoll struct {
	n      int64  // bytes appended to the local partial
	next   int    // committed next wearer (X-Next-Wearer); -1 before the first commit
	status string // X-Sweep-Status
	errMsg string // X-Sweep-Error, set on a failed sub-sweep
}

// fetchShard polls one host's store feed, appending the shard store's
// bytes [local, committed) to the local partial. The stream is
// append-only and deterministic — every backend executing the shard
// writes the identical byte sequence — so appending from whichever
// backend currently hosts it can never diverge, even across a backend
// swap mid-shard. A failed copy truncates back to local so the partial
// never carries a torn tail into the next attempt.
//
// The first poll pins h.instance; a later answer from a different
// process at the same address — a SIGKILL and restart inside one poll
// interval — is an error before any byte is appended, and the caller
// re-dispatches by label (the recovered sweep answers the
// resubmission idempotently, so this costs one POST, never a duplicate
// simulation).
//
// The reported next wearer is the supervisor's completeness witness: a
// "done" status only wins once the replicated store provably reaches
// the shard's range end, so a backend that pruned the store between
// commit and fetch cannot pass off a short partial as complete.
func (m *manager) fetchShard(h *shardHost, path string, local int64) (shardPoll, error) {
	resp, err := m.client.Get(fmt.Sprintf("%s/api/sweeps/%s/store?from=%d", h.base, h.id, local))
	if err != nil {
		return shardPoll{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return shardPoll{}, &httpStatusError{resp.StatusCode, strings.TrimSpace(string(body))}
	}
	if inst := resp.Header.Get("X-Iobfleetd-Instance"); h.instance == "" {
		h.instance = inst
	} else if inst != h.instance {
		return shardPoll{}, fmt.Errorf("%s restarted (instance %s, was %s)", h.base, inst, h.instance)
	}
	p := shardPoll{
		next:   -1,
		status: resp.Header.Get("X-Sweep-Status"),
		errMsg: resp.Header.Get("X-Sweep-Error"),
	}
	if v, err := strconv.Atoi(resp.Header.Get("X-Next-Wearer")); err == nil {
		p.next = v
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return p, err
	}
	if _, err := f.Seek(local, 0); err != nil {
		f.Close()
		return p, err
	}
	n, err := io.Copy(f, resp.Body)
	cerr := f.Close()
	if err == nil {
		err = cerr
	}
	if err != nil {
		os.Truncate(path, local)
		return p, err
	}
	m.metrics.shardFetchBytes.Add(float64(n))
	p.n = n
	return p, nil
}

// fetchSeedStore pulls the coordinator's partial copy of a shard store
// into path, so a replacement backend resumes from the blocks already
// replicated off the lost one instead of re-simulating from scratch.
// Best-effort: any failure leaves no seed behind and the caller starts a
// scratch store — slower, but bit-identical by determinism.
func (m *manager) fetchSeedStore(url, path string) bool {
	resp, err := m.client.Get(url)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return false
	}
	tmp := path + ".fetch"
	f, err := os.Create(tmp)
	if err != nil {
		return false
	}
	n, err := io.Copy(f, resp.Body)
	cerr := f.Close()
	if err != nil || cerr != nil || n == 0 {
		os.Remove(tmp)
		return false
	}
	// Drop any stale checkpoint before the rename: the sidecar describes
	// the file being replaced, and the seed-pulled store is validated by
	// the scan-resume path instead.
	if err := os.Remove(telemetry.CheckpointPath(path)); err != nil && !os.IsNotExist(err) {
		os.Remove(tmp)
		return false
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return false
	}
	m.metrics.shardFetchBytes.Add(float64(n))
	return true
}
