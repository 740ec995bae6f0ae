package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimePartialOverlap(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: ms(0), End: ms(10)},
		// Overlapping children count once; the last one sticks out of the
		// parent and is clipped to it.
		{ID: 2, Parent: 1, Name: "a", Start: ms(2), End: ms(5)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(4), End: ms(7)},
		{ID: 4, Parent: 1, Name: "c", Start: ms(9), End: ms(12)},
		// A grandchild is covered by its own parent, not by span 1.
		{ID: 5, Parent: 2, Name: "d", Start: ms(3), End: ms(4)},
		// A child starting before its parent is clipped at the start.
		{ID: 6, Name: "other", Start: ms(20), End: ms(30)},
		{ID: 7, Parent: 6, Name: "e", Start: ms(15), End: ms(22)},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: ms(4), // 10 - ([2,7] + [9,10])
		2: ms(2), // 3 - 1
		3: ms(3),
		4: ms(3),
		5: ms(1),
		6: ms(8), // 10 - [20,22]
		7: ms(7),
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.reserve("x", 0, 0)
	tr.finish(id, time.Now(), time.Now())
	if id != 0 || tr.add("y", 0, 0, time.Now(), time.Now()) != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
}

func TestTracerReserveFinish(t *testing.T) {
	tr := newTracer()
	start := time.Now()
	parent := tr.reserve("parent", 0, 7)
	child := tr.add("child", parent, 7, start, start.Add(ms(1)))
	tr.finish(parent, start, start.Add(ms(3)))
	spans := tr.snapshot()
	if len(spans) != 2 || spans[child-1].Parent != parent || spans[parent-1].dur() != ms(3) {
		t.Fatalf("spans = %+v", spans)
	}
	if got := selfTimes(spans)[parent]; got != ms(2) {
		t.Fatalf("parent self time %v, want 2ms", got)
	}
}
