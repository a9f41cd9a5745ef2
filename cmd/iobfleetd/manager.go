package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"wiban/internal/fleet"
	"wiban/internal/obs"
	"wiban/internal/sweep"
	"wiban/internal/telemetry"
)

// errDrained refuses submissions to a draining daemon and stops a
// coordinator's shard supervisors; the sweep parks as "interrupted" for
// the next process to resume. (A sweep running in this process stops
// through sweep.Run's stop channel, which is the drain channel itself.)
var errDrained = errors.New("iobfleetd: draining")

// errCancelled is the same for DELETE /api/sweeps/{id}: the sweep parks
// terminally as "cancelled" instead of re-queueing on restart.
var errCancelled = errors.New("iobfleetd: sweep cancelled")

// submit() refusals the POST handler maps to 503 and 500: a full queue is
// transient (the same spec succeeds later or on another backend), and so
// is a sidecar write failure — neither is the spec's fault.
var (
	errQueueFull = errors.New("sweep queue full")
	errPersist   = errors.New("persisting sweep state")
)

// cancel() result sentinels, mapped to HTTP codes by the DELETE handler.
var (
	errNoSweep  = errors.New("no such sweep")
	errTerminal = errors.New("sweep already terminal")
)

// Sweep statuses. A sweep moves queued → running → {done, failed,
// interrupted, cancelled}; interrupted and (recovered) running/queued
// sweeps re-enter the queue on restart. done, failed and cancelled are
// terminal — though a cancelled sweep resubmitted under its label is
// revived, which is how a stolen shard's losing copy can be
// re-dispatched later. The resting statuses a runner sets spell the
// names of sweep.Outcome, so a run's outcome is its status.
const (
	statusQueued      = "queued"
	statusRunning     = "running"
	statusDone        = "done"
	statusFailed      = "failed"
	statusInterrupted = "interrupted"
	statusCancelled   = "cancelled"
)

// sweepState is everything the daemon knows about one sweep — exactly
// what the `<id>.json` sidecar persists and the API serves. Progress
// fields (records, blocks, bytes) track the telemetry store's committed
// prefix, so they are durable truth, not optimistic in-memory counts.
type sweepState struct {
	ID          string     `json:"id"`
	Spec        sweep.Spec `json:"spec"`
	Status      string     `json:"status"`
	Records     int        `json:"records"`
	Blocks      int        `json:"blocks"`
	Bytes       int64      `json:"bytes"`
	Fingerprint string     `json:"fingerprint,omitempty"`
	Error       string     `json:"error,omitempty"`
	// CancelRequested survives a crash between the DELETE and the
	// runner's acknowledgement: recovery finalizes such a sweep as
	// cancelled instead of re-queueing work nobody wants anymore.
	CancelRequested bool `json:"cancel_requested,omitempty"`
}

func (st *sweepState) terminal() bool {
	return st.Status == statusDone || st.Status == statusFailed || st.Status == statusCancelled
}

// progressEvent is one NDJSON line on a sweep's progress stream: the
// sweep's state snapshot at a block-commit tick (or status change).
// Final marks the last event a subscriber will receive.
type progressEvent struct {
	sweepState
	WearersTotal int  `json:"wearers_total"`
	Final        bool `json:"final"`
}

// job is the in-memory half of a sweepState: the mutable state plus
// its progress subscribers and the cancellation latch. All fields are
// guarded by mu. Lock order is always manager.mu → job.mu; no path
// takes them the other way round, which is what makes the runner's
// queued→running claim and cancel()'s queued→cancelled transition
// mutually exclusive instead of racy.
type job struct {
	mu        sync.Mutex
	st        sweepState
	subs      map[chan progressEvent]struct{}
	cancel    chan struct{} // closed when cancellation is requested
	cancelled bool          // whether cancel has been closed (close-once latch)
}

func newJob(st sweepState) *job {
	return &job{st: st, cancel: make(chan struct{})}
}

// markCancelled trips the cancellation latch exactly once. Caller holds mu.
func (sw *job) markCancelled() {
	if !sw.cancelled {
		sw.cancelled = true
		close(sw.cancel)
	}
}

func (sw *job) cancelRequested() bool {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.cancelled
}

// cancelChan returns the current cancellation latch. Revival swaps the
// channel, so callers snapshot it once at the start of a run.
func (sw *job) cancelChan() <-chan struct{} {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.cancel
}

func (sw *job) snapshot() sweepState {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.st
}

// subscribe registers a progress listener. The current state arrives
// immediately as the first event, so a subscriber never waits for the
// next commit tick to learn where the sweep stands; if the sweep is
// already terminal that first event is also the last.
func (sw *job) subscribe() chan progressEvent {
	ch := make(chan progressEvent, 16)
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.subs == nil {
		sw.subs = make(map[chan progressEvent]struct{})
	}
	sw.subs[ch] = struct{}{}
	ch <- sw.event(sw.st.terminal() || sw.st.Status == statusInterrupted)
	return ch
}

func (sw *job) unsubscribe(ch chan progressEvent) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	delete(sw.subs, ch)
}

// event builds the progress event for the current state. Caller holds mu.
func (sw *job) event(final bool) progressEvent {
	return progressEvent{sweepState: sw.st, WearersTotal: sw.st.Spec.Wearers, Final: final}
}

// publish fans the current state out to every subscriber. Sends are
// lossy for intermediate events — a slow reader's oldest buffered event
// is dropped to make room — but never for the event itself: after the
// drop there is always room, so the final event always lands. Caller
// holds mu (the publisher is single-threaded per sweep: its runner).
func (sw *job) publish(final bool) {
	ev := sw.event(final)
	for ch := range sw.subs {
		select {
		case ch <- ev:
		default:
			select {
			case <-ch: // shed the oldest event; the snapshot supersedes it
			default:
			}
			ch <- ev
		}
	}
}

// defaultQueueCap bounds how many sweeps may wait for a runner before
// submissions are refused. Recovery is exempt: a restart re-queues every
// non-terminal sidecar however many there are, so a daemon can always
// pick its own state back up.
const defaultQueueCap = 4096

// manager owns the sweep set: submissions, the bounded runner pool, the
// sidecar persistence, crash recovery, the drain protocol and — for
// sweeps with a shards field — the multi-backend coordinator.
type manager struct {
	dir     string
	stats   *fleet.Stats // shared by every sweep; counters accumulate daemon-wide
	metrics *daemonMetrics

	// instance is this process's nonce, served as X-Iobfleetd-Instance on
	// store-feed responses. A backend SIGKILLed and restarted inside one
	// poll interval is otherwise invisible to its coordinator — every
	// request before and after the blink succeeds — but the blink rolls
	// the nonce, so supervisors detect the silent restart and re-dispatch
	// (label-idempotent, hence safe even when the recovered sweep is
	// already running again).
	instance string

	drain chan struct{} // closed when draining; never reopened
	wg    sync.WaitGroup

	backends []string    // static -backends entries (seed the membership; kept for the configured gauge)
	members  *membership // live fleet table shard dispatch selects from
	selfBase string      // this daemon's own base URL, set by start() after listen
	client   *http.Client
	slots    int

	// stealAfter is the straggler deadline: a dispatched shard whose
	// committed progress stalls this long gets a speculative second copy
	// on another live backend (0 disables stealing). retain bounds the
	// terminal sweeps kept in -data (0 keeps everything).
	stealAfter time.Duration
	retain     int

	mu       sync.Mutex
	cond     *sync.Cond // wakes runners when pending gains work or drain begins
	pending  []*job     // FIFO of sweeps awaiting a runner (unbounded; queueCap gates submissions only)
	draining bool
	queueCap int
	sweeps   map[string]*job
	order    []string          // submission order (ID order)
	byLabel  map[string]string // shard label → sweep ID (idempotent re-dispatch)
	nextID   int
	queued   int
	running  int
}

// daemonMetrics is the daemon's own event-driven metric set. The
// engine-sourced series (wearers, events, phase-1 time, equilibrium
// iterations, window depth) are registered as func metrics over the
// shared fleet.Stats and need no fields here.
type daemonMetrics struct {
	submitted, started, completed, failed, interrupted, resumed *obs.Counter
	cancelled, retired                                          *obs.Counter
	blocksWritten, bytesWritten                                 *obs.Counter
	shardsDispatched, shardRetries, shardFetchBytes             *obs.Counter
	shardsStolen                                                *obs.Counter
	sweepSeconds, phase1Seconds, allocBytes                     *obs.Histogram
}

// newManager loads any sweeps a previous process left in dir, re-queues
// the unfinished ones, and registers the full metric catalog on reg.
// Runners do not start until start() — recovery therefore cannot block
// on queue capacity (it stages into an unbounded pending list), and a
// coordinator sweep never runs before the daemon knows its own address.
func newManager(dir string, slots int, reg *obs.Registry, backends []string) (*manager, error) {
	if slots < 1 {
		slots = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &manager{
		dir:      dir,
		stats:    &fleet.Stats{},
		instance: fmt.Sprintf("%d-%016x", os.Getpid(), rand.Uint64()),
		drain:    make(chan struct{}),
		backends: backends,
		client:   &http.Client{Timeout: 30 * time.Second},
		slots:    slots,
		queueCap: defaultQueueCap,
		sweeps:   make(map[string]*job),
		byLabel:  make(map[string]string),
	}
	members, err := newMembership(filepath.Join(dir, "backends.json"), backends)
	if err != nil {
		return nil, err
	}
	m.members = members
	m.cond = sync.NewCond(&m.mu)
	m.registerMetrics(reg)
	if err := m.recover(); err != nil {
		return nil, err
	}
	return m, nil
}

// start records the daemon's own base URL (the loopback shard-dispatch
// target and seed-store address) and starts the runner pool. Called once
// the listener is up.
func (m *manager) start(selfBase string) {
	m.selfBase = selfBase
	for i := 0; i < m.slots; i++ {
		m.wg.Add(1)
		go m.runner()
	}
}

// recover scans dir for `<id>.json` sidecars and rebuilds the sweep
// set. Terminal sweeps are kept for the API; anything a dead process
// left queued, running or interrupted goes back on the queue in ID
// order — running/interrupted sweeps resume from their telemetry
// checkpoint when a runner picks them up.
func (m *manager) recover() error {
	names, err := filepath.Glob(filepath.Join(m.dir, "s*.json"))
	if err != nil {
		return err
	}
	sort.Strings(names)
	for _, name := range names {
		raw, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		var st sweepState
		if err := json.Unmarshal(raw, &st); err != nil {
			return fmt.Errorf("sweep sidecar %s: %w", name, err)
		}
		var n int
		if _, err := fmt.Sscanf(st.ID, "s%06d", &n); err != nil || filepath.Base(name) != st.ID+".json" {
			return fmt.Errorf("sweep sidecar %s: id %q does not match filename", name, st.ID)
		}
		if n >= m.nextID {
			m.nextID = n + 1
		}
		sw := newJob(st)
		m.sweeps[st.ID] = sw
		m.order = append(m.order, st.ID)
		if st.Spec.Label != "" {
			m.byLabel[st.Spec.Label] = st.ID
		}
		if !st.terminal() {
			if st.CancelRequested {
				// The process died between the DELETE and the runner's
				// acknowledgement: finalize the cancellation instead of
				// re-queueing work nobody wants. The checkpointed store stays
				// for retention to collect.
				sw.st.Status = statusCancelled
				sw.markCancelled()
				if err := m.persist(sw); err != nil {
					return err
				}
				m.metrics.cancelled.Inc()
				continue
			}
			sw.st.Status = statusQueued
			if err := m.persist(sw); err != nil {
				return err
			}
			m.queued++
			// The staging list is unbounded by design: recovery must never
			// deadlock on how many sweeps a dead process left behind.
			m.pending = append(m.pending, sw)
		}
	}
	return nil
}

// submit validates, persists and enqueues a new sweep. A draining
// daemon refuses submissions so the queue is quiescent at exit. The
// queue-capacity check happens BEFORE any state is created: a refused
// submission leaves no sidecar, no registry entry and no gauge increment
// — the HTTP response and the on-disk state always agree.
func (m *manager) submit(spec sweep.Spec) (sweepState, error) {
	if err := spec.Normalize(); err != nil {
		return sweepState{}, err
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return sweepState{}, errDrained
	}
	if spec.Label != "" {
		if id, ok := m.byLabel[spec.Label]; ok {
			// Idempotent re-dispatch: a coordinator resubmitting a shard
			// (after its own restart, or a lost response) gets the existing
			// sweep back instead of a duplicate simulation.
			sw := m.sweeps[id]
			sw.mu.Lock()
			if !reflect.DeepEqual(sw.st.Spec, spec) {
				sw.mu.Unlock()
				m.mu.Unlock()
				return sweepState{}, fmt.Errorf("label %q already names sweep %s with a different spec", spec.Label, id)
			}
			if sw.st.Status == statusCancelled {
				// Revival: the steal protocol cancels a losing shard copy, but
				// a coordinator re-dispatching the same label later (its winner
				// died too) must be able to run it again — from the checkpoint
				// the cancellation parked.
				if m.queued >= m.queueCap {
					sw.mu.Unlock()
					m.mu.Unlock()
					return sweepState{}, errQueueFull
				}
				sw.st.Status = statusQueued
				sw.st.CancelRequested = false
				sw.st.Error = ""
				sw.cancelled = false
				sw.cancel = make(chan struct{})
				if err := m.persist(sw); err != nil {
					sw.mu.Unlock()
					m.mu.Unlock()
					return sweepState{}, fmt.Errorf("%w: %w", errPersist, err)
				}
				sw.publish(false)
				m.queued++
				m.pending = append(m.pending, sw)
				m.cond.Signal()
				st := sw.st
				sw.mu.Unlock()
				m.mu.Unlock()
				m.metrics.submitted.Inc()
				return st, nil
			}
			st := sw.st
			sw.mu.Unlock()
			m.mu.Unlock()
			return st, nil
		}
	}
	if m.queued >= m.queueCap {
		// Back-pressure the client rather than block the HTTP handler.
		m.mu.Unlock()
		return sweepState{}, errQueueFull
	}
	id := fmt.Sprintf("s%06d", m.nextID)
	m.nextID++
	sw := newJob(sweepState{ID: id, Spec: spec, Status: statusQueued})
	if err := m.persist(sw); err != nil {
		m.mu.Unlock()
		return sweepState{}, fmt.Errorf("%w: %w", errPersist, err)
	}
	m.sweeps[id] = sw
	m.order = append(m.order, id)
	if spec.Label != "" {
		m.byLabel[spec.Label] = id
	}
	m.queued++
	m.pending = append(m.pending, sw)
	m.cond.Signal()
	m.mu.Unlock()
	m.metrics.submitted.Inc()
	return sw.snapshot(), nil
}

// get returns one sweep by ID.
func (m *manager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sw, ok := m.sweeps[id]
	return sw, ok
}

// list returns every sweep's state in submission order.
func (m *manager) list() []sweepState {
	m.mu.Lock()
	order := append([]string(nil), m.order...)
	sweeps := make([]*job, len(order))
	for i, id := range order {
		sweeps[i] = m.sweeps[id]
	}
	m.mu.Unlock()
	out := make([]sweepState, len(sweeps))
	for i, sw := range sweeps {
		out[i] = sw.snapshot()
	}
	return out
}

// persist writes the sweep's sidecar atomically.
func (m *manager) persist(sw *job) error {
	raw, err := json.MarshalIndent(&sw.st, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(m.dir, sw.st.ID+".json"), append(raw, '\n'))
}

// writeFileAtomic replaces path with raw via a temp file and a rename,
// the same durability discipline as the telemetry checkpoint: a crash
// leaves either the old content or the new, never a torn file. Every
// piece of daemon state (sweep sidecars, the membership table) is
// written through here.
func writeFileAtomic(path string, raw []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// runner is one slot of the bounded pool: it pulls queued sweeps until
// the daemon drains.
func (m *manager) runner() {
	defer m.wg.Done()
	m.mu.Lock()
	for {
		if m.draining {
			m.mu.Unlock()
			return
		}
		if len(m.pending) > 0 {
			sw := m.pending[0]
			m.pending = m.pending[1:]
			m.mu.Unlock()
			m.run(sw)
			m.mu.Lock()
			continue
		}
		m.cond.Wait()
	}
}

// beginDrain flips the daemon into drain mode: no new submissions, no
// new sweep starts, and every running sweep aborts at its next record
// boundary (checkpoint intact). It returns once all runners have
// exited — after it returns, every sweep is queued, interrupted or
// terminal, and the process may exit.
func (m *manager) beginDrain() {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.drain)
		m.cond.Broadcast()
	}
	m.mu.Unlock()
	m.wg.Wait()
}

// isDraining reports whether the daemon is shutting down — the health
// endpoint's readiness signal, so coordinators stop routing shards here.
func (m *manager) isDraining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// run executes one sweep to a terminal or interrupted state.
func (m *manager) run(sw *job) {
	m.mu.Lock()
	if m.draining {
		// Hand the sweep back to the front of the queue instead of
		// dropping it on the floor: it stays "queued" in memory, on disk
		// AND in the queued gauge — a coordinator watching backend gauges
		// during drain sees real load, not phantom drift.
		m.pending = append([]*job{sw}, m.pending...)
		m.mu.Unlock()
		return
	}
	// The queued→running claim happens under both locks, mirroring
	// cancel()'s queued→cancelled transition: exactly one of the two
	// wins, and a sweep cancelled between enqueue and claim is simply
	// skipped — cancel() already settled its state and gauges.
	sw.mu.Lock()
	if sw.st.Status != statusQueued {
		sw.mu.Unlock()
		m.mu.Unlock()
		return
	}
	m.queued--
	m.running++
	sw.st.Status = statusRunning
	sw.st.Error = ""
	if err := m.persist(sw); err != nil {
		fmt.Fprintf(os.Stderr, "iobfleetd: persisting %s: %v\n", sw.st.ID, err)
	}
	sw.publish(false)
	cancel := sw.cancel
	sw.mu.Unlock()
	m.mu.Unlock()
	m.metrics.started.Inc()

	storePath := m.storePath(sw.st.ID)
	spec := sw.snapshot().Spec
	if spec.Shards > 0 {
		m.runSharded(sw, spec, storePath)
		return
	}

	// A checkpointed store means a previous process died (or drained)
	// mid-sweep: resume it. A shard sub-sweep with no local store first
	// tries the coordinator's seed-store URL — the blocks already
	// replicated off a lost backend — and falls back to a scratch store
	// (bit-identical, just slower) if the pull fails.
	resume := false
	if st, err := os.Stat(storePath); err == nil && st.Size() > 0 {
		resume = true
	} else if spec.SeedStoreURL != "" {
		resume = m.fetchSeedStore(spec.SeedStoreURL, storePath)
	}
	run, err := spec.Open(storePath, resume)
	if err != nil {
		m.finish(sw, statusFailed, err.Error())
		return
	}
	if resume {
		m.metrics.resumed.Inc()
	}
	run.Fleet.Stats = m.stats

	// Progress and the telemetry byte/block counters ride the store's
	// commit tick: each callback fires after a block and its checkpoint
	// are durable, so everything the stream reports is crash-safe truth.
	store := run.Store
	baseBlocks, baseBytes := store.Blocks(), store.Offset()
	firstWearer, _ := spec.Range()
	store.OnCommit = func(blocks, records int, bytes int64) {
		m.metrics.blocksWritten.Add(float64(blocks - baseBlocks))
		m.metrics.bytesWritten.Add(float64(bytes - baseBytes))
		baseBlocks, baseBytes = blocks, bytes
		sw.mu.Lock()
		// records is the writer's absolute next wearer; Records counts the
		// sweep's own committed records, so a shard store subtracts its base.
		sw.st.Blocks, sw.st.Records, sw.st.Bytes = blocks, records-firstWearer, bytes
		sw.publish(false)
		sw.mu.Unlock()
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	out, perf, err := run.Run(cancel, m.drain)
	runtime.ReadMemStats(&ms1)
	if out != sweep.Done {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		// The checkpoint stays: an interrupted sweep resumes from it, a
		// cancelled one leaves it for retention to collect.
		m.finish(sw, out.String(), msg)
		return
	}
	m.metrics.sweepSeconds.Observe(time.Since(start).Seconds())
	m.metrics.phase1Seconds.Observe(perf.Phase1.Seconds())
	// TotalAlloc is process-wide, so with concurrent sweeps this
	// attributes neighbors' allocations too — an upper bound, which is
	// the useful direction for an allocation-budget signal.
	m.metrics.allocBytes.Observe(float64(ms1.TotalAlloc - ms0.TotalAlloc))
	sw.mu.Lock()
	sw.st.Fingerprint = run.Agg.Report().Fingerprint()
	sw.st.Records = run.Agg.Wearers()
	sw.mu.Unlock()
	m.finish(sw, statusDone, "")
}

// setStatus moves a running sweep to its resting state and persists +
// publishes the change. (The queued→running claim lives inline in run(),
// under both locks, so it can race-check against cancellation.)
func (m *manager) setStatus(sw *job, status, errMsg string) {
	m.mu.Lock()
	switch status {
	case statusDone, statusFailed, statusInterrupted, statusCancelled:
		m.running--
	}
	m.mu.Unlock()
	sw.mu.Lock()
	sw.st.Status = status
	sw.st.Error = errMsg
	if err := m.persist(sw); err != nil {
		// The in-memory transition stands; losing a sidecar write means a
		// restart replays this sweep from its last durable state, which the
		// resume path is built to absorb. Say so rather than die mid-drain.
		fmt.Fprintf(os.Stderr, "iobfleetd: persisting %s: %v\n", sw.st.ID, err)
	}
	sw.publish(status != statusQueued && status != statusRunning)
	sw.mu.Unlock()
}

// finish moves a running sweep to a terminal (or interrupted) state,
// counting the outcome, and returns the status that actually stuck: a
// drain that lands on a sweep whose cancellation was already requested
// parks it "cancelled", not "interrupted" — a restart must not revive
// work the DELETE already disowned.
func (m *manager) finish(sw *job, status, errMsg string) string {
	if status == statusInterrupted && sw.cancelRequested() {
		status = statusCancelled
	}
	m.setStatus(sw, status, errMsg)
	switch status {
	case statusDone:
		m.metrics.completed.Inc()
	case statusFailed:
		m.metrics.failed.Inc()
	case statusInterrupted:
		m.metrics.interrupted.Inc()
	case statusCancelled:
		m.metrics.cancelled.Inc()
	}
	if status == statusDone || status == statusCancelled {
		m.pruneRetained()
	}
	return status
}

// cancel implements DELETE /api/sweeps/{id}. A queued sweep unqueues on
// the spot; a running sweep has its latch tripped and the runner
// checkpoints-and-parks it cancelled at the next record boundary; an
// interrupted sweep is finalized so a restart won't resurrect it. done
// and failed are already settled (errTerminal); cancelling a cancelled
// sweep is idempotent. Gauge accounting happens here for the states a
// runner doesn't own (queued, interrupted) and in the runner's own
// transition for running — never both.
func (m *manager) cancel(id string) (sweepState, error) {
	m.mu.Lock()
	sw, ok := m.sweeps[id]
	if !ok {
		m.mu.Unlock()
		return sweepState{}, errNoSweep
	}
	sw.mu.Lock()
	prune := false
	switch sw.st.Status {
	case statusDone, statusFailed:
		st := sw.st
		sw.mu.Unlock()
		m.mu.Unlock()
		return st, errTerminal
	case statusCancelled:
		// idempotent: report the settled state again
	case statusQueued, statusInterrupted:
		if sw.st.Status == statusQueued {
			for i, p := range m.pending {
				if p == sw {
					m.pending = append(m.pending[:i], m.pending[i+1:]...)
					break
				}
			}
			m.queued--
		}
		sw.st.Status = statusCancelled
		sw.st.CancelRequested = true
		sw.markCancelled()
		if err := m.persist(sw); err != nil {
			fmt.Fprintf(os.Stderr, "iobfleetd: persisting %s: %v\n", sw.st.ID, err)
		}
		sw.publish(true)
		m.metrics.cancelled.Inc()
		prune = true
	case statusRunning:
		// Trip the latch and persist the request; the runner owns the
		// running gauge and completes the transition at the next record
		// boundary (or the shard supervisors cancel their sub-sweeps).
		sw.st.CancelRequested = true
		sw.markCancelled()
		if err := m.persist(sw); err != nil {
			fmt.Fprintf(os.Stderr, "iobfleetd: persisting %s: %v\n", sw.st.ID, err)
		}
	}
	st := sw.st
	sw.mu.Unlock()
	m.mu.Unlock()
	if prune {
		m.pruneRetained()
	}
	return st, nil
}

// pruneRetained enforces -retain: beyond the newest N terminal-and-done
// sweeps (done or cancelled — failed sweeps are kept as evidence), the
// oldest are dropped from the registry and their store, checkpoint,
// shard partials and sidecar unlinked. Non-terminal sweeps are never
// touched: queued/running/interrupted state is resumable and GC must
// not eat it.
func (m *manager) pruneRetained() {
	if m.retain <= 0 {
		return
	}
	m.mu.Lock()
	kept := 0
	var victims []*job
	for i := len(m.order) - 1; i >= 0; i-- {
		sw := m.sweeps[m.order[i]]
		sw.mu.Lock()
		st := sw.st.Status
		sw.mu.Unlock()
		if st != statusDone && st != statusCancelled {
			continue
		}
		if kept++; kept > m.retain {
			victims = append(victims, sw)
		}
	}
	for _, sw := range victims {
		sw.mu.Lock()
		id, label := sw.st.ID, sw.st.Spec.Label
		sw.mu.Unlock()
		delete(m.sweeps, id)
		if label != "" && m.byLabel[label] == id {
			delete(m.byLabel, label)
		}
		for i, oid := range m.order {
			if oid == id {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
	}
	m.mu.Unlock()
	for _, sw := range victims {
		id := sw.st.ID
		store := m.storePath(id)
		os.Remove(filepath.Join(m.dir, id+".json"))
		os.Remove(store)
		os.Remove(telemetry.CheckpointPath(store))
		if partials, err := filepath.Glob(filepath.Join(m.dir, id+".shard*")); err == nil {
			for _, p := range partials {
				os.Remove(p)
			}
		}
		m.metrics.retired.Inc()
	}
}

// registerMetrics wires the full catalog: daemon lifecycle counters,
// engine-sourced func metrics over the shared fleet.Stats, telemetry
// write counters, per-sweep latency/allocation histograms and Go
// runtime gauges.
func (m *manager) registerMetrics(reg *obs.Registry) {
	m.metrics = &daemonMetrics{
		submitted:   reg.NewCounter("iobfleetd_sweeps_submitted_total", "Sweeps accepted by POST /api/sweeps.", nil),
		started:     reg.NewCounter("iobfleetd_sweeps_started_total", "Sweeps a runner began executing (resumes included).", nil),
		completed:   reg.NewCounter("iobfleetd_sweeps_completed_total", "Sweeps finished with a fingerprint.", nil),
		failed:      reg.NewCounter("iobfleetd_sweeps_failed_total", "Sweeps ended by an error.", nil),
		interrupted: reg.NewCounter("iobfleetd_sweeps_interrupted_total", "Sweeps checkpointed and parked by a drain.", nil),
		resumed:     reg.NewCounter("iobfleetd_sweeps_resumed_total", "Sweeps continued from a telemetry checkpoint.", nil),
		cancelled:   reg.NewCounter("iobfleetd_sweeps_cancelled_total", "Sweeps cancelled by DELETE (or finalized as cancelled on recovery).", nil),
		retired: reg.NewCounter("iobfleetd_sweeps_retired_total",
			"Terminal sweeps garbage-collected by -retain (store, checkpoint and sidecar unlinked).", nil),
		blocksWritten: reg.NewCounter("iobfleetd_telemetry_blocks_written_total",
			"Telemetry blocks committed (checkpoint durable) across all sweeps.", nil),
		bytesWritten: reg.NewCounter("iobfleetd_telemetry_bytes_written_total",
			"Telemetry store bytes committed across all sweeps.", nil),
		shardsDispatched: reg.NewCounter("iobfleetd_shards_dispatched_total",
			"Shard sub-sweeps dispatched to backends (re-dispatches after a backend loss included).", nil),
		shardRetries: reg.NewCounter("iobfleetd_shard_retries_total",
			"Shard dispatch/poll/fetch attempts retried after a backend error or unhealthy probe.", nil),
		shardFetchBytes: reg.NewCounter("iobfleetd_shard_fetch_bytes_total",
			"Shard store bytes replicated between daemons (coordinator pulls and seed-store pulls).", nil),
		shardsStolen: reg.NewCounter("iobfleetd_shards_stolen_total",
			"Speculative shard copies dispatched after a straggler stalled past -steal-after.", nil),
		sweepSeconds: reg.NewHistogram("iobfleetd_sweep_duration_seconds",
			"Wall-clock duration of completed sweeps.", nil,
			[]float64{0.01, 0.1, 1, 10, 60, 600, 3600}),
		phase1Seconds: reg.NewHistogram("iobfleetd_phase1_duration_seconds",
			"Phase-1 (offered-load gather + equilibrium solve) wall-clock time of completed sweeps.", nil,
			[]float64{0.0001, 0.001, 0.01, 0.1, 1, 10}),
		allocBytes: reg.NewHistogram("iobfleetd_sweep_allocated_bytes",
			"Heap bytes allocated process-wide during each completed sweep (upper bound under concurrency).", nil,
			[]float64{1e5, 1e6, 1e7, 1e8, 1e9, 1e10}),
	}

	// Engine counters: func metrics over the shared fleet.Stats the hot
	// path updates with atomics — zero extra cost per scrape beyond reads.
	st := m.stats
	reg.NewCounterFunc("iobfleetd_wearers_simulated_total",
		"Wearer simulations completed across all sweeps.", nil,
		func() float64 { return float64(st.Wearers.Load()) })
	reg.NewCounterFunc("iobfleetd_kernel_events_total",
		"Discrete simulation events executed across all sweeps.", nil,
		func() float64 { return float64(st.Events.Load()) })
	reg.NewCounterFunc("iobfleetd_phase1_gather_seconds_total",
		"Cumulative phase-1 offered-load gather time.", nil,
		func() float64 { return float64(st.Phase1GatherNS.Load()) / 1e9 })
	reg.NewCounterFunc("iobfleetd_phase1_solve_seconds_total",
		"Cumulative phase-1 equilibrium solve time.", nil,
		func() float64 { return float64(st.Phase1SolveNS.Load()) / 1e9 })
	reg.NewCounterFunc("iobfleetd_equilibrium_iterations_total",
		"Fixed-point iterations summed over all solved cells.", nil,
		func() float64 { return float64(st.EquilibriumIters.Load()) })
	reg.NewCounterFunc("iobfleetd_equilibrium_cells_total",
		"Cells put through the equilibrium solver.", nil,
		func() float64 { return float64(st.EquilibriumCells.Load()) })
	reg.NewGaugeFunc("iobfleetd_reorder_window_depth",
		"Completed wearer reports parked awaiting in-order emission, across running sweeps.", nil,
		func() float64 { return float64(st.WindowDepth.Load()) })

	reg.NewGaugeFunc("iobfleetd_sweeps_queued", "Sweeps waiting for a runner.", nil, func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.queued)
	})
	reg.NewGaugeFunc("iobfleetd_sweeps_running", "Sweeps currently executing.", nil, func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.running)
	})
	reg.NewGaugeFunc("iobfleetd_backends_configured",
		"Shard backends configured via -backends (0 = loopback self-dispatch).", nil,
		func() float64 { return float64(len(m.backends)) })

	// Membership: registration/expiry counters are wired into the table
	// (which predates this call in newManager); liveness is derived per
	// scrape, so the gauges are funcs over one locked pass.
	m.members.registrations = reg.NewCounter("iobfleetd_backend_registrations_total",
		"Backends added to the membership table (first registration or revival after expiry).", nil)
	m.members.expirations = reg.NewCounter("iobfleetd_backends_expired_total",
		"Dynamic backends whose heartbeats fell silent past -expire.", nil)
	reg.NewGaugeFunc("iobfleetd_backends_registered",
		"Membership table entries (static and dynamic, live or expired).", nil,
		func() float64 { t, _ := m.members.counts(); return float64(t) })
	reg.NewGaugeFunc("iobfleetd_backends_live",
		"Membership entries currently selectable for shard dispatch.", nil,
		func() float64 { _, l := m.members.counts(); return float64(l) })

	reg.NewGaugeFunc("iobfleetd_goroutines", "Goroutines in the daemon process.", nil,
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.NewGaugeFunc("iobfleetd_heap_alloc_bytes", "Live heap bytes (runtime.MemStats.HeapAlloc).", nil, func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
	reg.NewCounterFunc("iobfleetd_gc_cycles_total", "Completed GC cycles.", nil, func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.NumGC)
	})
}
