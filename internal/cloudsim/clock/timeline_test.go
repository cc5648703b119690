package clock

import (
	"testing"
	"time"
)

// TestTimelineOrder pins the execution order: by instant, ties by
// scheduling order, and events scheduled in the past run immediately at
// the current (monotonic) instant.
func TestTimelineOrder(t *testing.T) {
	tl := NewTimeline()
	var got []int
	rec := func(id int) func(time.Time) {
		return func(time.Time) { got = append(got, id) }
	}
	at := func(d time.Duration) time.Time { return Epoch.Add(d) }

	tl.Schedule(at(3*time.Second), rec(3))
	tl.Schedule(at(1*time.Second), rec(1))
	tl.Schedule(at(2*time.Second), rec(2))
	tl.Schedule(at(2*time.Second), rec(20)) // same instant: after rec(2)

	if n := tl.Run(); n != 4 {
		t.Fatalf("Run executed %d events, want 4", n)
	}
	want := []int{1, 2, 20, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order %v, want %v", got, want)
		}
	}
	if now := tl.Now(); !now.Equal(at(3 * time.Second)) {
		t.Fatalf("clock at %v after Run, want %v", now, at(3*time.Second))
	}

	// An event in the past executes at the current instant.
	fired := time.Time{}
	tl.Schedule(at(1*time.Second), func(now time.Time) { fired = now })
	tl.Run()
	if !fired.Equal(at(3 * time.Second)) {
		t.Fatalf("past event ran at %v, want current instant %v", fired, at(3*time.Second))
	}
}

// TestTimelineEventsScheduleEvents checks the DES pattern the fleet
// account drivers use: each event schedules its successor.
func TestTimelineEventsScheduleEvents(t *testing.T) {
	tl := NewTimeline()
	end := Epoch.Add(10 * time.Second)
	count := 0
	var step func(now time.Time)
	step = func(now time.Time) {
		count++
		next := now.Add(3 * time.Second)
		if next.Before(end) {
			tl.Schedule(next, step)
		}
	}
	tl.Schedule(Epoch.Add(1*time.Second), step)
	// Arrivals land at 1s, 4s, 7s; the next would be 10s, which is not
	// before the horizon, so the chain stops at three events.
	if n := tl.Run(); n != 3 || count != 3 {
		t.Fatalf("chained run executed %d events (callbacks %d), want 3", n, count)
	}
}

// TestTimelinePreservesClockSemantics checks that waiters on the
// driven clock behave exactly as under manual Advance.
func TestTimelinePreservesClockSemantics(t *testing.T) {
	tl := NewTimeline()
	release := tl.Clock().After(5 * time.Second)
	tl.Schedule(Epoch.Add(2*time.Second), func(time.Time) {})
	tl.Schedule(Epoch.Add(6*time.Second), func(time.Time) {})
	tl.Run()

	select {
	case at := <-release:
		if want := Epoch.Add(6 * time.Second); !at.Equal(want) {
			t.Fatalf("waiter released at %v, want %v", at, want)
		}
	default:
		t.Fatal("waiter not released by the timeline crossing its deadline")
	}
}

// TestTimelineRunUntil pins the window semantics RunFleet relies on:
// events past the horizon stay queued, and the clock lands exactly on
// the horizon.
func TestTimelineRunUntil(t *testing.T) {
	tl := NewTimeline()
	ran := 0
	for _, d := range []time.Duration{time.Second, 2 * time.Second, 9 * time.Second} {
		tl.Schedule(Epoch.Add(d), func(time.Time) { ran++ })
	}
	end := Epoch.Add(5 * time.Second)
	if n := tl.RunUntil(end); n != 2 || ran != 2 {
		t.Fatalf("RunUntil executed %d events (callbacks %d), want 2", n, ran)
	}
	if p := tl.Pending(); p != 1 {
		t.Fatalf("%d events pending after RunUntil, want 1", p)
	}
	if now := tl.Now(); !now.Equal(end) {
		t.Fatalf("clock at %v after RunUntil, want %v", now, end)
	}
}
