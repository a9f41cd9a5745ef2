package desim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// The differential test for the event queue: a seeded random schedule
// runs on the Simulator and on refKernel, an oracle built here on
// container/heap that pops every event and pushes periodic events back
// after their handler returns. Both must execute the same handlers at the
// same times in the same order, and agree on the clock, the executed
// count and the pending count after every RunUntil or Run.

// refEvent is the oracle's pending event.
type refEvent struct {
	at      Time
	seq     uint64
	fn      Handler
	period  Time
	stopped bool
}

// refQueue orders refEvents by (at, seq) through heap.Interface.
type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	*q = old[:len(old)-1]
	return ev
}

// kernel is the scheduling surface the random driver exercises. Handles
// are indices in scheduling order, so both kernels name an event alike.
type kernel interface {
	now() Time
	at(t Time, fn Handler)
	periodic(first, period Time, fn Handler)
	cancel(h int)
	halt()
	runUntil(end Time)
	run()
	executed() uint64
	pending() int
}

// refKernel is the container/heap oracle.
type refKernel struct {
	clock  Time
	q      refQueue
	seq    uint64
	halted bool
	count  uint64
	ids    []*refEvent
}

func (r *refKernel) schedule(at Time, fn Handler, period Time) {
	ev := &refEvent{at: at, seq: r.seq, fn: fn, period: period}
	r.seq++
	heap.Push(&r.q, ev)
	r.ids = append(r.ids, ev)
}

func (r *refKernel) now() Time                               { return r.clock }
func (r *refKernel) at(t Time, fn Handler)                   { r.schedule(t, fn, 0) }
func (r *refKernel) periodic(first, period Time, fn Handler) { r.schedule(r.clock+first, fn, period) }
func (r *refKernel) cancel(h int)                            { r.ids[h].stopped = true }
func (r *refKernel) halt()                                   { r.halted = true }
func (r *refKernel) executed() uint64                        { return r.count }
func (r *refKernel) pending() int                            { return len(r.q) }

func (r *refKernel) step() bool {
	for len(r.q) > 0 {
		ev := heap.Pop(&r.q).(*refEvent)
		if ev.stopped {
			continue
		}
		r.clock = ev.at
		r.count++
		ev.fn()
		if ev.period > 0 && !ev.stopped && !r.halted {
			ev.at += ev.period
			ev.seq = r.seq
			r.seq++
			heap.Push(&r.q, ev)
		}
		return true
	}
	return false
}

func (r *refKernel) run() {
	r.halted = false
	for !r.halted && r.step() {
	}
}

func (r *refKernel) runUntil(end Time) {
	r.halted = false
	for !r.halted && len(r.q) > 0 {
		if r.q[0].stopped {
			heap.Pop(&r.q)
			continue
		}
		if r.q[0].at > end {
			break
		}
		r.step()
	}
	if r.clock < end && !r.halted {
		r.clock = end
	}
}

// simKernel adapts a Simulator to kernel.
type simKernel struct {
	s   *Simulator
	ids []EventID
}

func (k *simKernel) now() Time             { return k.s.Now() }
func (k *simKernel) at(t Time, fn Handler) { k.ids = append(k.ids, k.s.At(t, fn)) }
func (k *simKernel) periodic(first, period Time, fn Handler) {
	k.ids = append(k.ids, k.s.Periodic(first, period, fn))
}
func (k *simKernel) cancel(h int)      { k.s.Cancel(k.ids[h]) }
func (k *simKernel) halt()             { k.s.Halt() }
func (k *simKernel) runUntil(end Time) { k.s.RunUntil(end) }
func (k *simKernel) run()              { k.s.Run() }
func (k *simKernel) executed() uint64  { return k.s.Executed() }
func (k *simKernel) pending() int      { return k.s.Pending() }

// driveRandom runs a seeded random schedule on k and returns its trace:
// one line per handler run (time and handle) and one per RunUntil/Run
// return (clock, executed, pending). Times are whole milliseconds so ties
// and RunUntil ends that land exactly on event times are common.
func driveRandom(k kernel, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	handles := 0
	const maxHandles = 400
	ms := func(n int) Time { return Time(rng.Intn(n)) * Millisecond }

	var schedule func(periodic bool, first Time)
	handler := func(h int) Handler {
		return func() {
			trace = append(trace, fmt.Sprintf("run %d @%v", h, k.now()))
			switch r := rng.Intn(20); {
			case r < 5 && handles < maxHandles:
				// A one-shot; delay 0 schedules at now, behind the
				// events already due now.
				schedule(false, ms(4))
			case r < 7 && handles < maxHandles:
				schedule(true, ms(4))
			case r < 9:
				k.cancel(h) // self-cancel: ends a periodic event
			case r < 12:
				k.cancel(rng.Intn(handles)) // cross-cancel, maybe stale
			case r == 12:
				k.halt()
			}
		}
	}
	schedule = func(periodic bool, first Time) {
		h := handles
		handles++
		if periodic {
			k.periodic(first, Time(1+rng.Intn(5))*Millisecond, handler(h))
		} else {
			k.at(k.now()+first, handler(h))
		}
	}
	checkpoint := func(op string) {
		trace = append(trace, fmt.Sprintf("%s -> now %v executed %d pending %d",
			op, k.now(), k.executed(), k.pending()))
	}

	for i := 0; i < 20; i++ {
		schedule(i%4 == 0, ms(30))
	}
	for i := 0; i < 60; i++ {
		end := k.now() + ms(8)
		k.runUntil(end)
		checkpoint(fmt.Sprintf("RunUntil(%v)", end))
		if rng.Intn(4) == 0 && handles < maxHandles {
			schedule(rng.Intn(2) == 0, ms(3))
		}
	}
	// Periodic events never drain: cancel everything, then Run until the
	// queue is empty (Halt may stop it early; resume until it is).
	for h := 0; h < handles; h++ {
		k.cancel(h)
	}
	for k.pending() > 0 {
		k.run()
		checkpoint("Run")
	}
	return trace
}

func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		want := driveRandom(&refKernel{}, seed)
		got := driveRandom(&simKernel{s: New(seed)}, seed)
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: trace diverges at line %d of %d/%d:\n got %q\nwant %q",
				seed, i, len(got), len(want), got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
		}
	}
}

// BenchmarkKernel is the event queue's own number: 16 periodic sources
// with periods of 1–16 ms (sampling, superframe and harvester ticks),
// each scheduling a one-shot completion 0–3 ms later, over one simulated
// minute on a Reset arena.
func BenchmarkKernel(b *testing.B) {
	s := New(1)
	done := func() {}
	var ticks []Handler
	for i := 0; i < 16; i++ {
		delay := Time(i%4) * Millisecond
		ticks = append(ticks, func() { s.After(delay, done) })
	}
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		s.Reset(1)
		for j, tick := range ticks {
			s.Periodic(Time(j)*Microsecond, Time(j+1)*Millisecond, tick)
		}
		s.RunUntil(Minute)
		events += s.Executed()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}
