// Package desim is a deterministic discrete-event simulation kernel.
//
// It drives the body-area-network simulator (internal/bannet): virtual time
// advances from event to event, never by wall-clock sleeping, so a month of
// simulated wearable operation costs only as many events as actually occur.
//
// Determinism is a design requirement: the same seed and the same scenario
// must replay the identical event order, because the benchmark harness
// compares energy and latency figures across runs. To that end the kernel is
// single-threaded, ties in the event heap break on a monotone sequence
// number, and all randomness flows through the seeded RNG the simulator
// owns.
//
// The event queue is a typed binary min-heap keyed on (at, seq). Every
// event internal/bannet schedules is periodic (sensor sampling, TDMA
// superframes and harvester ticks, all through Periodic), so a periodic
// event is never taken out of the heap between firings: it runs at the
// root, then re-arms in place with its next time and sequence number and
// one sift-down. Handlers may
// schedule, cancel and halt freely, but must not call Run, RunUntil or
// Reset on their own simulator.
package desim

import (
	"fmt"
	"math/rand"
)

// Time is virtual simulation time in integer nanoseconds. Integer time
// makes event ordering exact (no float tie ambiguity) while one-nanosecond
// resolution comfortably resolves a 30 Mbps bit (33 ns).
type Time int64

// Time unit constants.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
	Day         Time = 24 * Hour
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// FromSeconds converts floating-point seconds to a Time, rounding to the
// nearest nanosecond.
func FromSeconds(s float64) Time { return Time(s*float64(Second) + 0.5) }

// String renders the time as seconds with full sub-second precision.
func (t Time) String() string { return fmt.Sprintf("%gs", t.Seconds()) }

// Handler is a scheduled callback. It runs when virtual time reaches the
// event's timestamp.
type Handler func()

// event is a pending callback in the priority queue. Events are recycled
// through the simulator's freelist: after a one-shot event runs (or a
// canceled event is reaped) its storage goes back to the arena, so a
// steady-state simulation — millions of events — allocates a bounded
// handful of event structs. gen counts recycles so a stale EventID held
// across a recycle can never cancel the event that now occupies the slot.
type event struct {
	at      Time
	seq     uint64 // tie-breaker: FIFO among same-time events
	fn      Handler
	period  Time // > 0: self-rearming periodic event (see Periodic)
	gen     uint32
	stopped bool
}

// EventID identifies a scheduled event so it can be canceled. It pins the
// event's recycle generation: an ID that outlives its event (the event
// ran, or the simulator was Reset) becomes an inert no-op for Cancel.
type EventID struct {
	ev  *event
	gen uint32
}

// eventQueue is a binary min-heap of pending events ordered by (at, seq).
// It is typed rather than a container/heap adapter so the comparison
// inlines and no interface dispatch sits on the per-event path. Because
// seq is unique, (at, seq) is a total order: the pop sequence is the same
// under any heap layout, so every event runs at exactly the point it
// would under any other correct priority queue.
type eventQueue []*event

// before reports whether a runs ahead of b.
func (a *event) before(b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push adds ev to the heap.
func (q *eventQueue) push(ev *event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
}

// pop removes and returns the earliest event. The queue must be
// non-empty.
func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	ev := h[0]
	h[0] = h[n]
	h[n] = nil
	*q = h[:n]
	if n > 0 {
		q.fixRoot()
	}
	return ev
}

// fixRoot restores the heap order after the root's key grew: one
// sift-down from index 0.
func (q eventQueue) fixRoot() {
	n := len(q)
	ev := q[0]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && q[r].before(q[c]) {
			c = r
		}
		if !q[c].before(ev) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = ev
}

// Simulator owns a virtual clock, an event queue and a deterministic RNG.
// The zero value is not usable; construct with New.
//
// A Simulator is a reusable arena: Reset rewinds it to the freshly
// constructed state (new seed, empty queue, zero clock) while keeping the
// event freelist and queue capacity, so a driver that replays many
// scenarios on one kernel — the fleet engine's per-worker shards — runs
// allocation-free in steady state.
type Simulator struct {
	now    Time
	queue  eventQueue
	seq    uint64
	rng    *rand.Rand
	events uint64 // executed event count, for stats
	halted bool
	free   []*event // recycled event storage
}

// New returns a simulator whose RNG is seeded with seed.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Reset rewinds the simulator to the state New(seed) constructs —
// identical RNG stream, empty queue, zero clock and counters — while
// retaining the event arena and queue capacity for reuse. Any EventID
// from before the Reset is inert.
func (s *Simulator) Reset(seed int64) {
	for _, ev := range s.queue {
		s.recycle(ev)
	}
	s.queue = s.queue[:0]
	s.now = 0
	s.seq = 0
	s.events = 0
	s.halted = false
	s.rng.Seed(seed)
}

// alloc takes an event from the freelist (or the heap allocator on a
// cold arena) and stamps it with the next sequence number.
func (s *Simulator) alloc(at Time, fn Handler, period Time) *event {
	var ev *event
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn, ev.period, ev.stopped = at, s.seq, fn, period, false
	s.seq++
	return ev
}

// recycle returns an event's storage to the arena. Bumping gen makes
// every outstanding EventID for this storage inert.
func (s *Simulator) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	s.free = append(s.free, ev)
}

// DeriveSeed expands one base seed into a family of decorrelated child
// seeds, one per stream index, using the splitmix64 finalizer. A fleet of
// independent simulations derives each member's seed as
// DeriveSeed(fleetSeed, member), which keeps every member reproducible
// from the single fleet seed while nearby indices (0, 1, 2, …) land on
// statistically unrelated RNG streams — sequential seeds fed straight to
// math/rand would correlate.
//
// The mapping is pure and stable: it is part of the replayability contract
// (recorded fleet fingerprints depend on it), so it must never change.
func DeriveSeed(base int64, stream uint64) int64 {
	// splitmix64: golden-gamma increment then the finalizer.
	return int64(Mix64(uint64(base) + 0x9e3779b97f4a7c15*(stream+1)))
}

// Mix64 is the splitmix64 finalizer (Steele, Lea & Flood, OOPSLA 2014):
// two xor-multiply rounds plus a closing xor-shift. It is the shared
// bit-mixing primitive behind DeriveSeed and every other pinned
// deterministic mapping in the repo (e.g. spectrum cell assignment);
// like DeriveSeed itself, its output must never change.
func Mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand exposes the simulator's deterministic random source. All model
// randomness (packet errors, jitter, harvester variation) must come from
// here so a run is reproducible from its seed.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Executed reports how many events have run so far.
func (s *Simulator) Executed() uint64 { return s.events }

// At schedules fn to run at absolute time at. Scheduling in the past
// panics: it always indicates a model bug, and silently clamping would
// corrupt causality.
func (s *Simulator) At(at Time, fn Handler) EventID {
	if at < s.now {
		panic(fmt.Sprintf("desim: scheduling at %v before now %v", at, s.now))
	}
	ev := s.alloc(at, fn, 0)
	s.queue.push(ev)
	return EventID{ev, ev.gen}
}

// After schedules fn to run delay after the current time.
func (s *Simulator) After(delay Time, fn Handler) EventID {
	if delay < 0 {
		panic(fmt.Sprintf("desim: negative delay %v", delay))
	}
	return s.At(s.now+delay, fn)
}

// Cancel prevents a scheduled event from running. Canceling an event that
// already ran (or was already canceled, or predates a Reset) is a
// harmless no-op: the EventID's generation no longer matches the recycled
// storage, so nothing is touched.
func (s *Simulator) Cancel(id EventID) {
	if id.ev != nil && id.ev.gen == id.gen {
		id.ev.stopped = true
	}
}

// Periodic schedules fn to run at now+first and then every period
// thereafter, until the returned ID is canceled. Unlike Every it carries
// no closure machinery: the kernel re-arms the same event storage in
// place at the heap root after each firing (taking the next sequence
// number exactly where the callback-rescheduling pattern would), so a
// periodic source costs one arena event for the whole run and one
// sift-down per firing. Halt stops the re-arm like it stops a
// self-rescheduling callback. A periodic event never drains on its own;
// drive the simulation with RunUntil or Cancel it before Run.
func (s *Simulator) Periodic(first, period Time, fn Handler) EventID {
	if period <= 0 {
		panic("desim: Periodic requires a positive period")
	}
	if first < 0 {
		panic(fmt.Sprintf("desim: negative delay %v", first))
	}
	ev := s.alloc(s.now+first, fn, period)
	s.queue.push(ev)
	return EventID{ev, ev.gen}
}

// Every schedules fn to run now+first, then every period thereafter, until
// the returned stop function is called. fn observes the simulator clock; a
// period must be positive. It is Periodic with a closure-shaped handle.
func (s *Simulator) Every(first, period Time, fn Handler) (stop func()) {
	id := s.Periodic(first, period, fn)
	return func() { s.Cancel(id) }
}

// Halt stops the run loop after the current event returns. Pending events
// stay queued (Run/RunUntil can be called again to resume).
func (s *Simulator) Halt() { s.halted = true }

// step executes the earliest pending event. It reports false if the queue
// is empty. The event runs while it stays at the heap root: anything its
// handler schedules has at ≥ now and a larger seq, so it cannot displace
// the root, and Cancel only marks events. Afterwards a one-shot event, or
// a periodic one that was canceled or halted, is popped and recycled. A
// live periodic event re-arms in place: its time advances by one period
// and it takes the next sequence number at exactly the point a
// self-rescheduling callback would have (after its handler returned), so
// the event order is bit-identical to the closure formulation, at the
// cost of one sift-down from the root instead of a pop and a push.
func (s *Simulator) step() bool {
	for len(s.queue) > 0 {
		ev := s.queue[0]
		if ev.stopped {
			s.recycle(s.queue.pop())
			continue
		}
		s.now = ev.at
		s.events++
		ev.fn()
		if ev.period > 0 && !ev.stopped && !s.halted {
			ev.at += ev.period
			ev.seq = s.seq
			s.seq++
			s.queue.fixRoot()
		} else {
			s.recycle(s.queue.pop())
		}
		return true
	}
	return false
}

// Run executes events until the queue is empty or Halt is called, and
// returns the final virtual time.
func (s *Simulator) Run() Time {
	s.halted = false
	for !s.halted && s.step() {
	}
	return s.now
}

// RunUntil executes events with timestamps ≤ end, then sets the clock to
// end (if it has not already passed) and returns. Events after end remain
// queued.
func (s *Simulator) RunUntil(end Time) Time {
	s.halted = false
	for !s.halted && len(s.queue) > 0 {
		// Reap canceled events at the head before peeking at its time,
		// so step never runs past end.
		next := s.queue[0]
		if next.stopped {
			s.recycle(s.queue.pop())
			continue
		}
		if next.at > end {
			break
		}
		s.step()
	}
	if s.now < end && !s.halted {
		s.now = end
	}
	return s.now
}

// Pending reports how many events are queued (including canceled events not
// yet reaped).
func (s *Simulator) Pending() int { return len(s.queue) }
