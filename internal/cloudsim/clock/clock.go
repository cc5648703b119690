// Package clock provides the time sources used by the cloud simulator.
//
// Every simulated service takes a Clock rather than calling time.Now
// directly, so a full month of billed usage or a 20-second SQS long poll
// can be simulated in microseconds of test time while remaining faithful
// on the simulated timeline.
package clock

import (
	"sync"
	"time"
)

// Clock is a readable time source.
type Clock interface {
	// Now reports the current time on this clock's timeline.
	Now() time.Time
}

// Waiter is a Clock whose timeline can be waited on. Both Wall and
// *Virtual implement it, so services that block (e.g. an SQS long
// poll in wall mode) never have to reach for the time package: they
// wait on whatever clock was injected, and a virtual clock releases
// them when Advance or Set crosses the deadline.
type Waiter interface {
	Clock
	// After returns a channel that delivers the clock's then-current
	// time once d has elapsed on the clock's timeline. Non-positive d
	// yields an immediately ready channel.
	After(d time.Duration) <-chan time.Time
}

// After waits for d on c's own timeline when c implements Waiter and
// falls back to a real timer otherwise, so callers can block on any
// injected Clock without importing the time package's wall-clock
// functions themselves.
func After(c Clock, d time.Duration) <-chan time.Time {
	if w, ok := c.(Waiter); ok {
		return w.After(d)
	}
	return time.After(d)
}

// Wall is a Clock backed by the real system clock.
type Wall struct{}

// Now implements Clock using time.Now.
func (Wall) Now() time.Time { return time.Now() }

// After implements Waiter using a real timer.
func (Wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Epoch is the default start time for virtual clocks: midnight UTC on the
// first day of a 30-day simulated billing month.
var Epoch = time.Date(2017, time.June, 1, 0, 0, 0, 0, time.UTC)

// Virtual is a manually advanced Clock. The zero value is not ready for
// use; construct one with NewVirtual. Virtual is safe for concurrent use.
type Virtual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []waiter
}

// waiter is one goroutine blocked in After until the virtual timeline
// reaches at.
type waiter struct {
	at time.Time
	ch chan time.Time
}

// NewVirtual returns a virtual clock positioned at Epoch.
func NewVirtual() *Virtual { return NewVirtualAt(Epoch) }

// NewVirtualAt returns a virtual clock positioned at start.
func NewVirtualAt(start time.Time) *Virtual { return &Virtual{now: start} }

// Now reports the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Advance moves the clock forward by d and releases any waiters whose
// deadlines the move crosses. Negative d is ignored: simulated time
// never flows backwards.
func (v *Virtual) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.now = v.now.Add(d)
	v.fireLocked()
	v.mu.Unlock()
}

// Set jumps the clock to t if t is later than the current virtual time,
// releasing any waiters the jump crosses. Earlier values are ignored so
// the timeline stays monotonic.
func (v *Virtual) Set(t time.Time) {
	v.mu.Lock()
	if t.After(v.now) {
		v.now = t
		v.fireLocked()
	}
	v.mu.Unlock()
}

// After implements Waiter: the returned channel delivers the virtual
// time once the timeline reaches now+d via Advance or Set. Non-positive
// d completes immediately at the current virtual instant.
func (v *Virtual) After(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	v.mu.Lock()
	if d <= 0 {
		ch <- v.now
	} else {
		v.waiters = append(v.waiters, waiter{at: v.now.Add(d), ch: ch})
	}
	v.mu.Unlock()
	return ch
}

// Waiters reports how many goroutines are currently parked in After.
// Tests use it to advance the clock only once a blocked caller has
// registered, keeping virtual-time tests free of real sleeps.
func (v *Virtual) Waiters() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters)
}

// fireLocked delivers the current time to every waiter whose deadline
// has been reached. Caller holds v.mu.
func (v *Virtual) fireLocked() {
	kept := v.waiters[:0]
	for _, w := range v.waiters {
		if w.at.After(v.now) {
			kept = append(kept, w)
			continue
		}
		w.ch <- v.now // buffered: never blocks
	}
	v.waiters = kept
}
