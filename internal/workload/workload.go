// Package workload generates the request traces the experiments replay:
// Poisson arrivals at the paper's per-service daily rates, a diurnal
// modulation, and the Slack-like group chat trace the paper calibrates
// against ("the authors' Slack group sends an average of 5000 Slack
// messages per week among a group of 15 people").
//
// All generators are seeded and deterministic.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Poisson generates exponentially distributed interarrival times for a
// given daily rate.
type Poisson struct {
	rng     *rand.Rand
	perDay  float64
	current time.Time
}

// NewPoisson returns a Poisson arrival process starting at start.
func NewPoisson(seed int64, perDay float64, start time.Time) *Poisson {
	return &Poisson{rng: NewRand(seed), perDay: perDay, current: start}
}

// Next advances to and returns the next arrival instant.
func (p *Poisson) Next() time.Time {
	if p.perDay <= 0 {
		p.current = p.current.Add(24 * time.Hour)
		return p.current
	}
	meanGap := 24 * time.Hour / time.Duration(math.Max(p.perDay, 1e-9))
	gap := time.Duration(p.rng.ExpFloat64() * float64(meanGap))
	p.current = p.current.Add(gap)
	return p.current
}

// ArrivalsWithin returns all arrivals inside [start, start+window).
func (p *Poisson) ArrivalsWithin(window time.Duration) []time.Time {
	end := p.current.Add(window)
	var out []time.Time
	for {
		t := p.Next()
		if !t.Before(end) {
			p.current = end
			return out
		}
		out = append(out, t)
	}
}

// Diurnal reports a rate multiplier for the hour of day, integrating
// to ~1 over 24 hours: quiet overnight, a morning and an evening peak
// — the shape of personal communication traffic.
func Diurnal(hour int) float64 {
	h := float64(((hour % 24) + 24) % 24)
	morning := math.Exp(-math.Pow(h-10, 2) / 18)
	evening := math.Exp(-math.Pow(h-20, 2) / 12)
	base := 0.25 + 1.9*morning + 1.6*evening
	return base / 1.33 // normalizing constant for 24h mean ≈ 1
}

// ChatEvent is one message in a group chat trace.
type ChatEvent struct {
	At   time.Time
	From string
	Body string
}

// SlackGroup parameterizes the paper's calibration group.
type SlackGroup struct {
	Members     []string
	MsgsPerWeek float64
	Seed        int64
	// BodyBytes is the mean message length (120 bytes if zero).
	BodyBytes int
}

// PaperSlackGroup returns the group from §6.1: 5000 messages per week
// among 15 people.
func PaperSlackGroup() SlackGroup {
	members := make([]string, 15)
	for i := range members {
		members[i] = fmt.Sprintf("member%02d", i)
	}
	return SlackGroup{Members: members, MsgsPerWeek: 5000, Seed: 7}
}

// Trace generates the group's messages over the given span starting at
// start, Poisson in time with diurnal modulation, senders drawn
// uniformly.
func (g SlackGroup) Trace(start time.Time, span time.Duration) []ChatEvent {
	rng := NewRand(g.Seed)
	perDay := g.MsgsPerWeek / 7
	bodyBytes := g.BodyBytes
	if bodyBytes <= 0 {
		bodyBytes = 120
	}
	var out []ChatEvent
	cur := start
	end := start.Add(span)
	for {
		// Thin a homogeneous process by the diurnal weight.
		meanGap := 24 * time.Hour / time.Duration(math.Max(perDay*2.2, 1e-9))
		cur = cur.Add(time.Duration(rng.ExpFloat64() * float64(meanGap)))
		if !cur.Before(end) {
			return out
		}
		if rng.Float64() > Diurnal(cur.Hour())/2.2 {
			continue
		}
		n := bodyBytes/2 + rng.Intn(bodyBytes)
		out = append(out, ChatEvent{
			At:   cur,
			From: g.Members[rng.Intn(len(g.Members))],
			Body: synthBody(rng, n),
		})
	}
}

// PerDay reports the trace's average daily message count.
func PerDay(events []ChatEvent, span time.Duration) float64 {
	days := span.Hours() / 24
	if days <= 0 {
		return 0
	}
	return float64(len(events)) / days
}

var words = []string{
	"ok", "ship", "it", "deploy", "lambda", "meeting", "at", "noon",
	"did", "you", "see", "the", "latency", "numbers", "lgtm", "cost",
	"table", "updated", "privacy", "review", "done", "coffee", "break",
}

func synthBody(rng *rand.Rand, targetBytes int) string {
	var b []byte
	for len(b) < targetBytes {
		if len(b) > 0 {
			b = append(b, ' ')
		}
		b = append(b, words[rng.Intn(len(words))]...)
	}
	return string(b)
}
