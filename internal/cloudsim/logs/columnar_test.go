package logs

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cloudsim/clock"
)

// mixedGroup populates a group with the shapes the query engine meets
// in practice: structured plane events with fields, bare text lines,
// REPORT-style lines with numeric payloads, and multiple streams so
// the merged order matters.
func mixedGroup(s *Service) {
	at := func(i int) time.Time { return clock.Epoch.Add(time.Duration(i) * time.Second) }
	for i := 0; i < 25; i++ {
		s.PutEvents("g/mixed", "alpha", Event{
			Time:    at(i),
			Message: fmt.Sprintf("s3:GetObject outcome=ok latency_ms=%d.250 cost_nanodollars=%d", i, 400+i),
			Fields:  map[string]string{"service": "s3", "outcome": "ok", "op": "s3:GetObject"},
		})
	}
	for i := 0; i < 10; i++ {
		s.PutEvents("g/mixed", "beta", Event{
			Time:    at(2 * i),
			Message: fmt.Sprintf("REPORT Duration: %d.00 ms Billed Duration: %d ms", 90+i, 100*(1+(90+i)/100)),
		})
	}
	s.PutEvents("g/mixed", "beta",
		Event{Time: at(5), Message: "plain line with no equals signs"},
		Event{Time: at(6), Message: "outcome=denied snooping attempt", Fields: map[string]string{"outcome": "denied"}},
	)
}

// columnarQueries is the differential corpus: each pipeline shape the
// Insights engine supports, over the mixedGroup events.
var columnarQueries = []string{
	`fields @timestamp, @message`,
	`filter @message like "REPORT"`,
	`filter outcome = "ok" | fields @logStream, @message`,
	`filter @logStream = "beta" | sort @timestamp desc | limit 5`,
	`parse @message "latency_ms=* cost_nanodollars=*" as lat, cost | fields lat, cost`,
	`parse @message "Billed Duration: * ms" as billed | filter billed != "" | stats count(*) as n, min(billed) as lo, max(billed) as hi, pct(billed, 50) as med`,
	`filter @message like "outcome=" | stats count(*) as n by outcome | sort n desc`,
	`stats count(*) as n, avg(cost_nanodollars) as c by service`,
	`parse @message "outcome=* " as oc | sort oc asc | limit 9`,
	`filter cost_nanodollars > 410 | stats sum(cost_nanodollars) as total`,
	`fields @logGroup, @logStream, outcome | sort @logStream asc | limit 30`,
	`filter @message like "nosuchthing"`,
	`filter @message like "nosuchthing" | stats count(*) as n`,

	// Post-stats tails: later stages read the aggregate rows.
	`stats count(*) as n by outcome | filter n > 1 | stats sum(n) as total`,
	`stats count(*) as n by op | parse op "s3:*" as verb | fields op, verb, n`,
	`parse @message "latency_ms=* " as lat | stats count(*) as n, max(lat) as hi by @logStream | fields hi, @logStream, n, @message`,
	`stats count(*) as n by service, outcome | sort outcome desc | limit 2 | stats count(*) as groups, sum(n) as events`,
	`parse @message "cost_nanodollars=*" as cost | stats count(*) as n, pct(cost, 50) as n by service | sort n desc`,
	`stats count(*) as outcome by outcome | fields outcome`,
}

// TestColumnarMatchesRows is the differential gate for the column
// executor: every query runs through both Query and the row-at-a-time
// reference (queryRows, reference_test.go), and the rendered tables
// must match byte for byte — columns, order, and cell formatting.
func TestColumnarMatchesRows(t *testing.T) {
	s := New(clock.NewVirtual())
	mixedGroup(s)

	var zero time.Time
	for _, q := range columnarQueries {
		col, err := s.Query("g/mixed", q, zero, zero)
		if err != nil {
			t.Fatalf("columnar %q: %v", q, err)
		}
		ref, err := s.queryRows("g/mixed", q, zero, zero)
		if err != nil {
			t.Fatalf("rows %q: %v", q, err)
		}
		if got, want := col.Render(), ref.Render(); got != want {
			t.Errorf("query %q diverges\n--- columnar ---\n%s--- rows ---\n%s", q, got, want)
		}
	}

	// Windowed queries must agree too (the window trims the scan before
	// the pipeline sees it).
	from, to := clock.Epoch.Add(4*time.Second), clock.Epoch.Add(12*time.Second)
	for _, q := range columnarQueries[:6] {
		col, err := s.Query("g/mixed", q, from, to)
		if err != nil {
			t.Fatalf("columnar windowed %q: %v", q, err)
		}
		ref, err := s.queryRows("g/mixed", q, from, to)
		if err != nil {
			t.Fatalf("rows windowed %q: %v", q, err)
		}
		if got, want := col.Render(), ref.Render(); got != want {
			t.Errorf("windowed query %q diverges\n--- columnar ---\n%s--- rows ---\n%s", q, got, want)
		}
	}
}

// FuzzInsightsQuery runs arbitrary pipelines through Query and the
// reference over the mixedGroup events plus one arbitrary message:
// they must fail with the same error or return the same columns and
// cells. The message lets the fuzzer reach the glob rule's edges —
// newlines under a *, and bytes that are not UTF-8.
func FuzzInsightsQuery(f *testing.F) {
	const msg = "x=1 y outcome=ok latency_ms=7"
	for _, q := range columnarQueries {
		f.Add(q, msg)
	}
	// A * spans newlines; a literal U+FFFD matches only its own three
	// bytes, never an invalid byte that a regexp would decode to it.
	f.Add(`parse @message "x=* y" as v | fields v`, "x=1\n2 y")
	f.Add("parse @message \"v=\uFFFD* w\" as v | fields v", "v=\xff9 w")
	var zero time.Time
	f.Fuzz(func(t *testing.T, q, msg string) {
		s := New(clock.NewVirtual())
		mixedGroup(s)
		s.PutEvents("g/mixed", "gamma", Event{Time: clock.Epoch.Add(3 * time.Second), Message: msg})
		col, colErr := s.Query("g/mixed", q, zero, zero)
		ref, refErr := s.queryRows("g/mixed", q, zero, zero)
		if fmt.Sprint(colErr) != fmt.Sprint(refErr) {
			t.Fatalf("query %q on %q: columnar error %v, rows error %v", q, msg, colErr, refErr)
		}
		if colErr != nil {
			return
		}
		if !reflect.DeepEqual(col.Columns, ref.Columns) {
			t.Fatalf("query %q on %q: columns %q (columnar) vs %q (rows)", q, msg, col.Columns, ref.Columns)
		}
		if len(col.Rows) != len(ref.Rows) {
			t.Fatalf("query %q on %q: %d rows (columnar) vs %d (rows)", q, msg, len(col.Rows), len(ref.Rows))
		}
		for i := range col.Rows {
			if !reflect.DeepEqual(col.Rows[i], ref.Rows[i]) {
				t.Fatalf("query %q on %q row %d: %q (columnar) vs %q (rows)", q, msg, i, col.Rows[i], ref.Rows[i])
			}
		}
	})
}

// TestParseEdgeCases pins the glob scanner's corner semantics, on Query
// and on the reference: empty globs are rejected at parse time, adjacent
// wildcards yield an empty first capture, unmatched rows leave their
// fields unset, and multi-capture globs bind names left to right.
func TestParseEdgeCases(t *testing.T) {
	s := New(clock.NewVirtual())
	s.PutEvents("g/edge", "s",
		Event{Time: clock.Epoch, Message: "a=1 b=2 c=3"},
		Event{Time: clock.Epoch.Add(time.Second), Message: "unrelated line"},
		Event{Time: clock.Epoch.Add(2 * time.Second), Message: "a=9 b=8 c=7"},
	)
	var zero time.Time

	// A glob with no wildcard cannot bind any name: parse-time error.
	if _, err := s.Query("g/edge", `parse @message "a=1" as x`, zero, zero); err == nil {
		t.Error("wildcard-less glob: want error, got none")
	}
	// Wildcard/name count mismatch: parse-time error.
	if _, err := s.Query("g/edge", `parse @message "a=* b=*" as x`, zero, zero); err == nil {
		t.Error("2 wildcards for 1 name: want error, got none")
	}

	// Adjacent wildcards: the first capture is the shortest possible
	// match — empty — the second runs lazily to the next literal, and
	// the trailing wildcard is greedy to the end of the line.
	res, err := s.Query("g/edge", `parse @message "a=** b=*" as x, y, z | fields x, y, z | limit 1`, zero, zero)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value(0, "x") != "" || res.Value(0, "y") != "1" || res.Value(0, "z") != "2 c=3" {
		t.Errorf("adjacent wildcards bound x=%q y=%q z=%q, want \"\", \"1\", \"2 c=3\"",
			res.Value(0, "x"), res.Value(0, "y"), res.Value(0, "z"))
	}

	// Unmatched rows keep their fields unset: the middle event has no
	// "a=" so its x renders empty while matched neighbors bind.
	res, err = s.Query("g/edge", `parse @message "a=* b=*" as x, y | fields @message, x, y`, zero, zero)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("parse dropped rows: got %d, want 3 (unmatched rows pass through)", len(res.Rows))
	}
	if res.Value(0, "x") != "1" || res.Value(1, "x") != "" || res.Value(2, "x") != "9" {
		t.Errorf("x column = %q,%q,%q, want 1,\"\",9", res.Value(0, "x"), res.Value(1, "x"), res.Value(2, "x"))
	}

	// Multi-capture ordering: names bind to wildcards strictly left to
	// right even when the captures look alike.
	res, err = s.Query("g/edge", `parse @message "a=* b=* c=*" as first, second, third | fields first, second, third | limit 1`, zero, zero)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value(0, "first") != "1" || res.Value(0, "second") != "2" || res.Value(0, "third") != "3" {
		t.Errorf("multi-capture bound %q,%q,%q, want 1,2,3",
			res.Value(0, "first"), res.Value(0, "second"), res.Value(0, "third"))
	}

	// A trailing wildcard is greedy: it takes everything to the end of
	// the line, embedded delimiters included.
	res, err = s.Query("g/edge", `parse @message "a=*" as rest | fields rest | limit 1`, zero, zero)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value(0, "rest"); got != "1 b=2 c=3" {
		t.Errorf("trailing wildcard captured %q, want %q", got, "1 b=2 c=3")
	}

	// Each edge case must agree with the row reference as well.
	for _, q := range []string{
		`parse @message "a=** b=*" as x, y, z | fields x, y, z`,
		`parse @message "a=* b=*" as x, y | fields @message, x, y`,
		`parse @message "a=*" as rest | fields rest`,
	} {
		col, err := s.Query("g/edge", q, zero, zero)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := s.queryRows("g/edge", q, zero, zero)
		if err != nil {
			t.Fatal(err)
		}
		if col.Render() != ref.Render() {
			t.Errorf("edge query %q: columnar and row paths disagree\n--- columnar ---\n%s--- rows ---\n%s",
				q, col.Render(), ref.Render())
		}
	}
}

// TestLitGlobMatchesRegex checks the literal-scanner glob matcher
// against the reference's text-compiled regexp across messages from a
// small alphabet, so every capture-boundary case the scanner special-
// cases (lead literal offset, lazy middles, greedy tail, adjacent
// stars) is cross-checked.
func TestLitGlobMatchesRegex(t *testing.T) {
	globs := []string{
		"a=*",
		"a=* b=*",
		"*=b",
		"**",
		"a=**",
		"x* y*z",
		"* ms",
		"Billed Duration: * ms",
	}
	msgs := []string{
		"",
		"a=1",
		"a=1 b=2",
		"a= b=",
		"b=2 a=1",
		"x1 y2z",
		"x y z",
		"Billed Duration: 200 ms",
		"REPORT Billed Duration: 200 ms extra",
		"aa=11 bb=22",
		"a=1 b=2 a=3 b=4",
	}
	for _, glob := range globs {
		text := fmt.Sprintf("@message %q as %s", glob, names(strings.Count(glob, "*")))
		st, err := parseParse(text)
		if err != nil {
			t.Fatalf("glob %q: %v", glob, err)
		}
		ps := st.(*parseStage)
		re, err := globRegexp("parse " + text)
		if err != nil {
			t.Fatalf("glob %q: %v", glob, err)
		}
		caps := make([]string, strings.Count(glob, "*"))
		for _, msg := range msgs {
			m := re.FindStringSubmatch(msg)
			caps, ok := ps.lg.match(msg, caps[:0])
			if (m != nil) != ok {
				t.Errorf("glob %q on %q: scanner matched=%v, regex matched=%v", glob, msg, ok, m != nil)
				continue
			}
			if m == nil {
				continue
			}
			for i := range caps {
				if caps[i] != m[i+1] {
					t.Errorf("glob %q on %q: capture %d = %q (scanner) vs %q (regex)", glob, msg, i, caps[i], m[i+1])
				}
			}
		}
	}
}

// names returns "v0, v1, ..." for n parse bindings.
func names(n int) string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("v%d", i)
	}
	return strings.Join(out, ", ")
}

// TestParseGlobInvalidUTF8 pins that a parse glob must be valid UTF-8:
// one with a stray byte is a query error, while a valid non-ASCII glob
// parses and matches.
func TestParseGlobInvalidUTF8(t *testing.T) {
	s := New(clock.NewVirtual())
	s.PutEvents("g/utf8", "s", Event{Time: clock.Epoch, Message: "prix=12€ net"})
	var zero time.Time
	for _, glob := range []string{"\xff*", "prix=*\xe2\x82 net", "*\xc3"} {
		q := `parse @message "` + glob + `" as x`
		_, err := s.Query("g/utf8", q, zero, zero)
		if err == nil || !strings.Contains(err.Error(), "invalid UTF-8") {
			t.Errorf("query %q: error %v, want an invalid UTF-8 error", q, err)
		}
	}
	res, err := s.Query("g/utf8", `parse @message "prix=*€" as p | fields p`, zero, zero)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Value(0, "p"); got != "12" {
		t.Errorf("non-ASCII glob captured %q, want 12", got)
	}
}

// TestStatsRepeatedOutputName pins the rule for a stats output name
// that repeats — two aggregates with one alias, or an alias equal to a
// by field: every column carrying the name shows the value written
// last (by fields first, then aggregates in order), and so do the
// stages after stats.
func TestStatsRepeatedOutputName(t *testing.T) {
	s := New(clock.NewVirtual())
	mixedGroup(s)
	var zero time.Time
	for _, tc := range []struct {
		q    string
		cols []string
		rows [][]string
	}{
		{
			`parse @message "cost_nanodollars=*" as cost | stats count(*) as n, pct(cost, 50) as n by service`,
			[]string{"service", "n", "n"},
			[][]string{{"", "", ""}, {"s3", "412", "412"}},
		},
		{
			`stats count(*) as service by service`,
			[]string{"service", "service"},
			[][]string{{"12", "12"}, {"25", "25"}},
		},
		{
			`parse @message "cost_nanodollars=*" as cost | stats count(*) as service, max(cost) as hi by service | filter service > 20 | fields hi, service`,
			[]string{"hi", "service"},
			[][]string{{"424", "25"}},
		},
	} {
		res, err := s.Query("g/mixed", tc.q, zero, zero)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		if !reflect.DeepEqual(res.Columns, tc.cols) || !reflect.DeepEqual(res.Rows, tc.rows) {
			t.Errorf("%s:\ngot  %q %q\nwant %q %q", tc.q, res.Columns, res.Rows, tc.cols, tc.rows)
		}
	}
}
