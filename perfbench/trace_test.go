package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "stream", Start: 0, End: 100 * ms},
		// Two overlapping children count once: [10,40) ∪ [30,50) = 40ms.
		{ID: 2, Parent: 1, Name: "consume", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "consume", Start: 30 * ms, End: 50 * ms},
		// A child sticking out of its parent is clipped: only [90,100).
		{ID: 4, Parent: 1, Name: "consume", Start: 90 * ms, End: 120 * ms},
		// A grandchild reduces its own parent only.
		{ID: 5, Parent: 2, Name: "write", Start: 15 * ms, End: 20 * ms},
		{ID: 6, Name: "other", Start: 0, End: 7 * ms},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50 * ms, 2: 25 * ms, 4: 30 * ms, 5: 5 * ms, 6: 7 * ms} {
		if self[id] != want {
			t.Errorf("span %d self = %v, want %v", id, self[id], want)
		}
	}
}

func TestTracerNilIsNoop(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "", 0)
	tr.end(id)
	if id != 0 || tr.snapshot() != nil {
		t.Error("nil tracer recorded a span")
	}
	tr = newTracer()
	parent := tr.begin("a", "s1", 0)
	child := tr.begin("b", "s1", parent)
	tr.end(child)
	tr.end(parent)
	got := tr.snapshot()
	if len(got) != 2 || got[1].Parent != parent || got[0].End < got[1].End || got[0].Sweep != "s1" {
		t.Errorf("spans = %+v", got)
	}
}
