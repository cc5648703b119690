package sortutil

import (
	"testing"
	"time"
)

func TestFormatDurationBoundaries(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{-time.Second, "0ms"},
		{0, "0ms"},
		{time.Nanosecond, "0s"}, // rounds to zero microseconds
		{499 * time.Nanosecond, "0s"},
		{500 * time.Nanosecond, "1µs"},
		{time.Microsecond, "1µs"},
		{999 * time.Microsecond, "999µs"},
		{999*time.Microsecond + 500*time.Nanosecond, "1ms"}, // still <1ms: µs precision
		{time.Millisecond, "1ms"},
		{time.Millisecond + 499*time.Microsecond, "1ms"},
		{time.Millisecond + 500*time.Microsecond, "2ms"},
		{211 * time.Millisecond, "211ms"},
		{999 * time.Millisecond, "999ms"},
		{1234 * time.Millisecond, "1.234s"},
		{90 * time.Second, "1m30s"},
		{time.Hour + 30*time.Minute, "1h30m0s"},
	}
	for _, c := range cases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
}

func TestFormatMoneyNanosBoundaries(t *testing.T) {
	cases := []struct {
		nanos int64
		want  string
	}{
		{0, "$0.00000000"},
		{1, "$0.00000000"}, // 0.1e-8 dollars rounds down
		{4, "$0.00000000"}, // 0.4e-8 rounds down
		{5, "$0.00000001"}, // 0.5e-8 rounds half up
		{9, "$0.00000001"},
		{10, "$0.00000001"}, // exactly 1e-8 dollars
		{15, "$0.00000002"},
		{1_820, "$0.00000182"},           // the demo trace's span scale
		{999_999_994, "$0.99999999"},     // just below a dollar
		{999_999_995, "$1.00000000"},     // rounding carries across the point
		{1_000_000_000, "$1.00000000"},   // one dollar exactly
		{12_345_678_912, "$12.34567891"}, // digit-exact, no float drift
		{-5, "-$0.00000001"},
		{-10_000_000_000, "-$10.00000000"},
	}
	for _, c := range cases {
		if got := FormatMoneyNanos(c.nanos); got != c.want {
			t.Errorf("FormatMoneyNanos(%d) = %q, want %q", c.nanos, got, c.want)
		}
	}
}
