package clock

import (
	"sync"
	"testing"
	"time"
)

func TestWallNow(t *testing.T) {
	var w Wall
	before := time.Now()
	got := w.Now()
	after := time.Now()
	if got.Before(before) || got.After(after) {
		t.Fatalf("Wall.Now() = %v, want between %v and %v", got, before, after)
	}
}

func TestVirtualStartsAtEpoch(t *testing.T) {
	v := NewVirtual()
	if !v.Now().Equal(Epoch) {
		t.Fatalf("NewVirtual().Now() = %v, want %v", v.Now(), Epoch)
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual()
	v.Advance(90 * time.Second)
	want := Epoch.Add(90 * time.Second)
	if !v.Now().Equal(want) {
		t.Fatalf("after Advance(90s): Now() = %v, want %v", v.Now(), want)
	}
}

func TestVirtualAdvanceNegativeIgnored(t *testing.T) {
	v := NewVirtual()
	v.Advance(-time.Hour)
	if !v.Now().Equal(Epoch) {
		t.Fatalf("negative Advance moved the clock to %v", v.Now())
	}
}

func TestVirtualSetMonotonic(t *testing.T) {
	v := NewVirtual()
	later := Epoch.Add(time.Hour)
	v.Set(later)
	if !v.Now().Equal(later) {
		t.Fatalf("Set(later): Now() = %v, want %v", v.Now(), later)
	}
	v.Set(Epoch) // earlier: must be ignored
	if !v.Now().Equal(later) {
		t.Fatalf("Set(earlier) rewound the clock to %v", v.Now())
	}
}

func TestVirtualAtCustomStart(t *testing.T) {
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	v := NewVirtualAt(start)
	if !v.Now().Equal(start) {
		t.Fatalf("NewVirtualAt: Now() = %v, want %v", v.Now(), start)
	}
}

func TestVirtualAfterConcurrentWaiters(t *testing.T) {
	// Many goroutines park at staggered deadlines; one Advance past all
	// of them must release every waiter with the post-advance time.
	v := NewVirtual()
	const waiters = 16
	results := make(chan time.Time, waiters)
	var ready sync.WaitGroup
	for i := 0; i < waiters; i++ {
		d := time.Duration(i+1) * time.Second
		ready.Add(1)
		go func() {
			ch := v.After(d)
			ready.Done()
			results <- <-ch
		}()
	}
	ready.Wait()
	for v.Waiters() < waiters {
		time.Sleep(time.Millisecond) // let every goroutine register
	}
	v.Advance(waiters * time.Second)
	want := Epoch.Add(waiters * time.Second)
	for i := 0; i < waiters; i++ {
		if got := <-results; !got.Equal(want) {
			t.Fatalf("waiter released at %v, want %v", got, want)
		}
	}
	if v.Waiters() != 0 {
		t.Fatalf("%d waiters still registered after release", v.Waiters())
	}
}

func TestVirtualAfterPartialRelease(t *testing.T) {
	// An Advance that crosses only some deadlines releases only those
	// waiters; the rest stay parked until a later Advance or Set.
	v := NewVirtual()
	early := v.After(time.Second)
	late := v.After(time.Minute)

	v.Advance(10 * time.Second)
	if got := <-early; !got.Equal(Epoch.Add(10 * time.Second)) {
		t.Fatalf("early waiter released at %v", got)
	}
	select {
	case got := <-late:
		t.Fatalf("late waiter released prematurely at %v", got)
	default:
	}

	v.Set(Epoch.Add(2 * time.Minute))
	if got := <-late; !got.Equal(Epoch.Add(2 * time.Minute)) {
		t.Fatalf("late waiter released at %v", got)
	}
}

func TestAfterZeroAndNegative(t *testing.T) {
	// Zero/negative waits are immediately ready on both implementations
	// (After never blocks the caller; the channel is pre-filled).
	v := NewVirtual()
	for _, d := range []time.Duration{0, -time.Second} {
		select {
		case got := <-v.After(d):
			if !got.Equal(Epoch) {
				t.Fatalf("Virtual.After(%v) delivered %v, want %v", d, got, Epoch)
			}
		default:
			t.Fatalf("Virtual.After(%v) not immediately ready", d)
		}
	}
	for _, d := range []time.Duration{0, -time.Second} {
		select {
		case <-Wall{}.After(d):
		case <-time.After(time.Second):
			t.Fatalf("Wall.After(%v) did not fire promptly", d)
		}
	}
}

func TestWallVirtualInterfaceAgreement(t *testing.T) {
	// Both implementations satisfy Waiter, and clock.After routes
	// through the implementation rather than the fallback; semantics
	// agree: the delivered instant is never before the deadline on the
	// clock's own timeline, and Now never runs backwards.
	var _ Waiter = Wall{}
	var _ Waiter = NewVirtual()

	check := func(name string, c Clock, advance func()) {
		t.Helper()
		start := c.Now()
		const d = 20 * time.Millisecond
		ch := After(c, d)
		if advance != nil {
			advance()
		}
		got := <-ch
		if got.Before(start.Add(d)) {
			t.Fatalf("%s: After(%v) delivered %v, before deadline %v", name, d, got, start.Add(d))
		}
		if c.Now().Before(start) {
			t.Fatalf("%s: Now ran backwards: %v < %v", name, c.Now(), start)
		}
	}
	v := NewVirtual()
	check("Virtual", v, func() {
		for v.Waiters() == 0 {
			time.Sleep(time.Millisecond)
		}
		v.Advance(time.Hour)
	})
	check("Wall", Wall{}, nil)
}

// bareClock implements Clock but not Waiter, forcing clock.After onto
// its wall-timer fallback.
type bareClock struct{}

func (bareClock) Now() time.Time { return Epoch }

func TestAfterFallbackForBareClock(t *testing.T) {
	select {
	case <-After(bareClock{}, time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("After fallback did not fire for a non-Waiter clock")
	}
}

func TestVirtualConcurrentAdvance(t *testing.T) {
	v := NewVirtual()
	const workers, steps = 8, 1000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < steps; j++ {
				v.Advance(time.Millisecond)
			}
		}()
	}
	wg.Wait()
	want := Epoch.Add(workers * steps * time.Millisecond)
	if !v.Now().Equal(want) {
		t.Fatalf("concurrent advance: Now() = %v, want %v", v.Now(), want)
	}
}
