package trace

import (
	"slices"
	"testing"
	"time"

	"repro/internal/pricing"
)

// FuzzTraceQuery drives the X-Ray filter grammar over the two-trace
// fixture store. For any expression and window, Query either errors or
// returns a start-ordered subset of Window(from, to), never panics, and
// returns the same rows when run twice. A bound of 0 seconds is open;
// any other value is that many seconds after t0.
func FuzzTraceQuery(f *testing.F) {
	for _, expr := range []string{
		`service(kms)`,
		`service("s3")`,
		`service(gateway)`,
		`service(dynamo)`,
		`duration > 500ms`,
		`duration <= 200ms`,
		`duration = 600ms`,
		`annotation.cold_start = true`,
		`annotation.cold_start != true`,
		`annotation.error != ""`,
		`cost > $0.0000001`,
		`cost > $1`,
		`service(kms) AND duration > 500ms`,
		`service(kms) OR duration > 500ms`,
		`NOT service(kms)`,
		`not (service(kms) or service(s3))`,
		`service(s3) and annotation.cold_start = true and duration >= 600ms`,
		`frobnicate(kms)`,
		`service(kms) extra`,
		`duration > fast`,
		`cost > $abc`,
		`annotation.key > 3`,
		`(service(kms)`,
		`bogus!`,
	} {
		f.Add(expr, int8(0), int8(0))
		f.Add(expr, int8(5), int8(0))
		f.Add(expr, int8(0), int8(5))
		f.Add(expr, int8(10), int8(-1))
	}
	book := pricing.Default2017()
	f.Fuzz(func(t *testing.T, expr string, fromSec, toSec int8) {
		bound := func(s int8) time.Time {
			if s == 0 {
				return time.Time{}
			}
			return t0.Add(time.Duration(s) * time.Second)
		}
		from, to := bound(fromSec), bound(toSec)
		s := fixtureStore(t)
		rows := func(vs []TraceView) []int32 {
			out := make([]int32, len(vs))
			for i, v := range vs {
				out[i] = v.row
			}
			return out
		}
		got, err := s.Query(expr, book, from, to)
		if err != nil {
			return
		}
		window := rows(s.Window(from, to))
		// A subsequence of the window: same rows, same start order.
		w := 0
		for _, r := range rows(got) {
			for w < len(window) && window[w] != r {
				w++
			}
			if w == len(window) {
				t.Fatalf("Query(%q) rows %v are not a start-ordered subset of Window rows %v", expr, rows(got), window)
			}
			w++
		}
		again, err := s.Query(expr, book, from, to)
		if err != nil {
			t.Fatalf("Query(%q) succeeded, then failed on rerun: %v", expr, err)
		}
		if !slices.Equal(rows(got), rows(again)) {
			t.Fatalf("Query(%q) returned rows %v, then %v", expr, rows(got), rows(again))
		}
	})
}
