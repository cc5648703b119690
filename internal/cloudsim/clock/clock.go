// Package clock provides the cloud simulator's one time source: the
// Virtual clock each simulated cloud owns.
//
// Every simulated service takes the cloud's *Virtual rather than
// calling time.Now directly, so a full month of billed usage or a
// 20-second SQS long poll can be simulated in microseconds of test time
// while remaining faithful on the simulated timeline.
package clock

import (
	"sync"
	"time"
)

// Epoch is the default start time for virtual clocks: midnight UTC on the
// first day of a 30-day simulated billing month.
var Epoch = time.Date(2017, time.June, 1, 0, 0, 0, 0, time.UTC)

// Virtual is a manually advanced clock. The zero value is not ready for
// use; construct one with NewVirtual. Virtual is safe for concurrent use.
type Virtual struct {
	mu  sync.Mutex
	now time.Time
}

// NewVirtual returns a virtual clock positioned at Epoch.
func NewVirtual() *Virtual { return &Virtual{now: Epoch} }

// Now reports the current virtual time.
func (v *Virtual) Now() time.Time {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Advance moves the clock forward by d. Negative d is ignored:
// simulated time never flows backwards.
func (v *Virtual) Advance(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.now = v.now.Add(d)
	v.mu.Unlock()
}

// Set jumps the clock to t if t is later than the current virtual time.
// Earlier values are ignored so the timeline stays monotonic.
func (v *Virtual) Set(t time.Time) {
	v.mu.Lock()
	if t.After(v.now) {
		v.now = t
	}
	v.mu.Unlock()
}
