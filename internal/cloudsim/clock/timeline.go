package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Timeline is a shard-local discrete-event queue driving a virtual
// clock: the fleet engine's unit of time. Events are executed in
// (instant, insertion order) — a deterministic total order — and each
// pop moves the underlying Virtual clock to the event's instant before
// the event runs, so Waiter semantics are exactly those of a
// hand-advanced clock: waiters release on every move, on the goroutine
// draining the timeline. One shard drains one timeline at a time, so
// events never race each other; the internal lock only guards Schedule
// calls made from inside running events.
type Timeline struct {
	v   *Virtual
	mu  sync.Mutex
	h   eventHeap
	seq uint64
}

// event is one scheduled callback. seq breaks ties among events at the
// same instant: first scheduled runs first, always.
type event struct {
	at  time.Time
	seq uint64
	fn  func(now time.Time)
}

// NewTimeline returns a timeline whose clock starts at Epoch.
func NewTimeline() *Timeline { return NewTimelineAt(Epoch) }

// NewTimelineAt returns a timeline whose clock starts at start.
func NewTimelineAt(start time.Time) *Timeline {
	return &Timeline{v: NewVirtualAt(start)}
}

// Clock returns the virtual clock the timeline drives. Inject it into
// whatever the events operate on (a Cloud, a service); the timeline
// moves it.
func (t *Timeline) Clock() *Virtual { return t.v }

// Now implements Clock.
func (t *Timeline) Now() time.Time { return t.v.Now() }

// After implements Waiter by delegating to the underlying clock, so a
// Timeline can stand anywhere a Virtual does.
func (t *Timeline) After(d time.Duration) <-chan time.Time { return t.v.After(d) }

// Schedule enqueues fn to run at instant at. An instant at or before
// the current virtual time runs at the current time (the timeline is
// monotonic, like the clock under it). Nil fns are ignored. Events may
// schedule further events; ordering stays deterministic because ties
// resolve by scheduling order.
func (t *Timeline) Schedule(at time.Time, fn func(now time.Time)) {
	if fn == nil {
		return
	}
	t.mu.Lock()
	heap.Push(&t.h, event{at: at, seq: t.seq, fn: fn})
	t.seq++
	t.mu.Unlock()
}

// ScheduleAfter enqueues fn d after the current virtual instant.
func (t *Timeline) ScheduleAfter(d time.Duration, fn func(now time.Time)) {
	t.Schedule(t.v.Now().Add(d), fn)
}

// Step pops the earliest event, moves the clock to its instant, and
// runs it. It reports false when the queue is empty.
func (t *Timeline) Step() bool {
	t.mu.Lock()
	if len(t.h) == 0 {
		t.mu.Unlock()
		return false
	}
	ev := heap.Pop(&t.h).(event)
	t.mu.Unlock()
	t.v.Set(ev.at)
	ev.fn(t.v.Now())
	return true
}

// Run drains the queue — including events scheduled by events — and
// reports how many it executed.
func (t *Timeline) Run() int {
	n := 0
	for t.Step() {
		n++
	}
	return n
}

// RunUntil executes every event at or before end, leaves later events
// queued, finally moves the clock to end, and reports how many events
// it executed.
func (t *Timeline) RunUntil(end time.Time) int {
	n := 0
	for {
		t.mu.Lock()
		ready := len(t.h) > 0 && !t.h[0].at.After(end)
		t.mu.Unlock()
		if !ready {
			break
		}
		t.Step()
		n++
	}
	t.v.Set(end)
	return n
}

// Pending reports how many events are queued.
func (t *Timeline) Pending() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.h)
}

// eventHeap is a min-heap on (at, seq).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
	return ev
}
