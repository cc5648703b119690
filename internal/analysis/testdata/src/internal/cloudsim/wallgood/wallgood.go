// Package wallgood is simulator-scoped code that takes all time from
// the cloud's *clock.Virtual; the wallclock analyzer must stay silent.
package wallgood

import (
	"time"

	"repro/internal/cloudsim/clock"
)

// Deadline computes a poll deadline on the injected timeline.
func Deadline(clk *clock.Virtual, wait time.Duration) time.Time {
	return clk.Now().Add(wait)
}

// Age measures elapsed simulated time.
func Age(clk *clock.Virtual, start time.Time) time.Duration {
	return clk.Now().Sub(start)
}
