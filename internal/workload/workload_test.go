package workload

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

func TestPoissonRate(t *testing.T) {
	p := NewPoisson(1, 2000, t0) // the paper's chat request rate
	arrivals := p.ArrivalsWithin(30 * 24 * time.Hour)
	perDay := float64(len(arrivals)) / 30
	if perDay < 1800 || perDay > 2200 {
		t.Fatalf("empirical rate %.0f/day, want ≈2000", perDay)
	}
	// Arrivals are strictly ordered.
	for i := 1; i < len(arrivals); i++ {
		if arrivals[i].Before(arrivals[i-1]) {
			t.Fatal("arrivals out of order")
		}
	}
}

func TestPoissonDeterministic(t *testing.T) {
	a := NewPoisson(42, 500, t0).ArrivalsWithin(24 * time.Hour)
	b := NewPoisson(42, 500, t0).ArrivalsWithin(24 * time.Hour)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatalf("arrival %d differs", i)
		}
	}
}

func TestPoissonZeroRate(t *testing.T) {
	p := NewPoisson(1, 0, t0)
	if got := p.ArrivalsWithin(24 * time.Hour); len(got) != 0 {
		t.Fatalf("zero rate produced %d arrivals", len(got))
	}
}

func TestDiurnalShape(t *testing.T) {
	// Overnight is quieter than the morning peak.
	if Diurnal(3) >= Diurnal(10) {
		t.Fatalf("3am (%v) not quieter than 10am (%v)", Diurnal(3), Diurnal(10))
	}
	if Diurnal(3) >= Diurnal(20) {
		t.Fatalf("3am (%v) not quieter than 8pm (%v)", Diurnal(3), Diurnal(20))
	}
	// Mean over the day is ≈ 1 so rates stay calibrated.
	var sum float64
	for h := 0; h < 24; h++ {
		sum += Diurnal(h)
	}
	if mean := sum / 24; math.Abs(mean-1) > 0.15 {
		t.Fatalf("diurnal mean %v, want ≈1", mean)
	}
	// Wraparound handles any input.
	if Diurnal(-1) != Diurnal(23) || Diurnal(24) != Diurnal(0) {
		t.Fatal("hour wraparound broken")
	}
}

func TestSlackTraceCalibration(t *testing.T) {
	// The paper's group: 5000 messages/week among 15 members. Over 4
	// simulated weeks the trace must land near that rate.
	g := PaperSlackGroup()
	span := 28 * 24 * time.Hour
	events := g.Trace(t0, span)
	perWeek := float64(len(events)) / 4
	if perWeek < 4000 || perWeek > 6000 {
		t.Fatalf("trace rate %.0f/week, want ≈5000", perWeek)
	}
	// All senders are group members and bodies are non-empty.
	members := make(map[string]bool)
	for _, m := range g.Members {
		members[m] = true
	}
	senders := make(map[string]bool)
	for _, e := range events {
		if !members[e.From] {
			t.Fatalf("non-member sender %q", e.From)
		}
		if e.Body == "" {
			t.Fatal("empty body")
		}
		if e.At.Before(t0) || !e.At.Before(t0.Add(span)) {
			t.Fatalf("event outside span: %v", e.At)
		}
		senders[e.From] = true
	}
	if len(senders) < 10 {
		t.Fatalf("only %d of 15 members ever spoke", len(senders))
	}
}

func TestSlackTraceDiurnal(t *testing.T) {
	g := PaperSlackGroup()
	events := g.Trace(t0, 28*24*time.Hour)
	night, day := 0, 0
	for _, e := range events {
		switch h := e.At.Hour(); {
		case h >= 1 && h < 6:
			night++
		case h >= 9 && h < 22:
			day++
		}
	}
	// Day hours (13h window) must dominate night hours (5h window) by
	// far more than the window ratio alone (2.6x).
	if float64(day) < 4*float64(night) {
		t.Fatalf("diurnal modulation weak: day %d vs night %d", day, night)
	}
}
