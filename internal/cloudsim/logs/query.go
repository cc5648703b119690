package logs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
)

// This file implements a CloudWatch Logs Insights-style query engine
// over stored events. A query is a pipeline of stages separated by
// `|`:
//
//	fields @timestamp, @message
//	filter <field> <op> <value>     op: = != > >= < <= like
//	parse <field> "<glob>" as a, b  each * captures one field
//	stats <agg>[, <agg>...] [by f1, f2]
//	                                agg: count(*) count(f) sum(f)
//	                                     avg(f) min(f) max(f) pct(f, p)
//	sort <field> [asc|desc]
//	limit <n>
//
// Example — the paper's Table 3 median billed duration, from Lambda
// REPORT lines alone:
//
//	filter @message like "REPORT" |
//	parse @message "Billed Duration: * ms" as billed_ms |
//	stats pct(billed_ms, 50) as med_billed_ms
//
// Built-in fields: @timestamp, @message, @logGroup, @logStream.
// Structured events additionally expose every Fields key. Evaluation
// is fully deterministic: events are scanned in the store's merged
// order, stats groups sort by key, and numbers render via
// strconv.FormatFloat with exact shortest form.

// QueryResult is a table of rows produced by a query pipeline.
type QueryResult struct {
	Columns []string
	Rows    [][]string
}

// Value returns the named column of row i ("" when absent), a
// convenience for single-cell Insights results.
func (r *QueryResult) Value(i int, column string) string {
	if r == nil || i < 0 || i >= len(r.Rows) {
		return ""
	}
	for c, name := range r.Columns {
		if name == column && c < len(r.Rows[i]) {
			return r.Rows[i][c]
		}
	}
	return ""
}

// Render formats the result as an aligned text table.
func (r *QueryResult) Render() string {
	if r == nil || len(r.Columns) == 0 {
		return "(no results)\n"
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(r.Columns)
	for _, row := range r.Rows {
		writeRow(row)
	}
	return b.String()
}

// Query runs an Insights-style pipeline over one group's events in
// [from, to] (zero times mean unbounded). Every stage runs on the
// column executor (columnar.go), which scans the store's columns under
// the service lock instead of materializing a map per event. The tests
// keep a row-at-a-time reference evaluator; TestColumnarMatchesRows
// and FuzzInsightsQuery pin Query to it cell-for-cell.
func (s *Service) Query(groupName, query string, from, to time.Time) (*QueryResult, error) {
	stages, err := parseQuery(query)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.groups[groupName]
	if g == nil {
		g = &group{name: groupName} // no events: @logGroup still names it
	}
	return runColumnar(s, g, g.windowRefs(from, to), stages), nil
}

// stage is one parsed pipeline step: a *fieldsStage, *filterStage,
// *parseStage, *statsStage, *sortStage or *limitStage.
type stage any

// parseQuery splits a pipeline on unquoted '|' and parses each stage.
func parseQuery(q string) ([]stage, error) {
	parts := splitTop(q, '|')
	if len(parts) == 0 {
		return nil, fmt.Errorf("logs: empty query")
	}
	var stages []stage
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			return nil, fmt.Errorf("logs: empty pipeline stage")
		}
		verb := p
		rest := ""
		if i := strings.IndexAny(p, " \t"); i >= 0 {
			verb, rest = p[:i], strings.TrimSpace(p[i+1:])
		}
		var (
			st  stage
			err error
		)
		switch verb {
		case "fields":
			st, err = parseFields(rest)
		case "filter":
			st, err = parseFilter(rest)
		case "parse":
			st, err = parseParse(rest)
		case "stats":
			st, err = parseStats(rest)
		case "sort":
			st, err = parseSort(rest)
		case "limit":
			st, err = parseLimit(rest)
		default:
			err = fmt.Errorf("logs: unknown stage %q", verb)
		}
		if err != nil {
			return nil, err
		}
		stages = append(stages, st)
	}
	return stages, nil
}

// splitTop splits s on sep occurrences outside double quotes and
// parentheses.
func splitTop(s string, sep byte) []string {
	var parts []string
	depth, start := 0, 0
	inQuote := false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '"':
			inQuote = !inQuote
		case inQuote:
		case s[i] == '(':
			depth++
		case s[i] == ')':
			depth--
		case s[i] == sep && depth == 0:
			parts = append(parts, s[start:i])
			start = i + 1
		}
	}
	parts = append(parts, s[start:])
	return parts
}

// ---- fields ----

type fieldsStage struct{ names []string }

func parseFields(rest string) (stage, error) {
	names := splitNames(rest)
	if len(names) == 0 {
		return nil, fmt.Errorf("logs: fields needs at least one field")
	}
	return &fieldsStage{names: names}, nil
}

// ---- filter ----

type filterStage struct {
	field, op, value string
}

func parseFilter(rest string) (stage, error) {
	toks, err := tokens(rest)
	if err != nil {
		return nil, err
	}
	if len(toks) != 3 {
		return nil, fmt.Errorf("logs: filter wants `<field> <op> <value>`, got %q", rest)
	}
	switch toks[1] {
	case "=", "!=", ">", ">=", "<", "<=", "like":
	default:
		return nil, fmt.Errorf("logs: filter operator %q not supported", toks[1])
	}
	return &filterStage{field: toks[0], op: toks[1], value: toks[2]}, nil
}

func (f *filterStage) match(got string) bool {
	if f.op == "like" {
		return strings.Contains(got, f.value)
	}
	// Compare numerically when both sides parse; fall back to strings.
	if a, errA := strconv.ParseFloat(got, 64); errA == nil {
		if b, errB := strconv.ParseFloat(f.value, 64); errB == nil {
			switch f.op {
			case "=":
				return a == b
			case "!=":
				return a != b
			case ">":
				return a > b
			case ">=":
				return a >= b
			case "<":
				return a < b
			case "<=":
				return a <= b
			}
		}
	}
	switch f.op {
	case "=":
		return got == f.value
	case "!=":
		return got != f.value
	case ">":
		return got > f.value
	case ">=":
		return got >= f.value
	case "<":
		return got < f.value
	case "<=":
		return got <= f.value
	}
	return false
}

// ---- parse ----

type parseStage struct {
	field string
	lg    litGlob
	names []string
}

func parseParse(rest string) (stage, error) {
	toks, err := tokens(rest)
	if err != nil {
		return nil, err
	}
	// <field> "<glob>" as a, b — tokens() keeps the glob as one token.
	if len(toks) < 4 || toks[2] != "as" {
		return nil, fmt.Errorf("logs: parse wants `<field> \"<glob>\" as <names>`, got %q", rest)
	}
	glob := toks[1]
	names := splitNames(strings.Join(toks[3:], " "))
	stars := strings.Count(glob, "*")
	if stars == 0 || stars != len(names) {
		return nil, fmt.Errorf("logs: parse glob has %d wildcards for %d names", stars, len(names))
	}
	// A glob is query text, so it must be UTF-8; the scanner would
	// otherwise match its stray bytes literally.
	if !utf8.ValidString(glob) {
		return nil, fmt.Errorf("logs: parse glob %q: invalid UTF-8", glob)
	}
	return &parseStage{field: toks[0], lg: compileGlob(glob), names: names}, nil
}

// ---- stats ----

type aggregate struct {
	fn    string // count, sum, avg, min, max, pct
	field string // "*" for count(*)
	pct   float64
	alias string
}

type statsStage struct {
	aggs []aggregate
	by   []string
}

func parseStats(rest string) (stage, error) {
	aggsPart, byPart := rest, ""
	if i := lastIndexTop(rest, " by "); i >= 0 {
		aggsPart, byPart = rest[:i], rest[i+len(" by "):]
	}
	var st statsStage
	for _, raw := range splitTop(aggsPart, ',') {
		raw = strings.TrimSpace(raw)
		if raw == "" {
			continue
		}
		agg, err := parseAggregate(raw)
		if err != nil {
			return nil, err
		}
		st.aggs = append(st.aggs, agg)
	}
	if len(st.aggs) == 0 {
		return nil, fmt.Errorf("logs: stats needs at least one aggregate")
	}
	if byPart != "" {
		st.by = splitNames(byPart)
	}
	return &st, nil
}

// parseAggregate parses `fn(args) [as alias]`.
func parseAggregate(s string) (aggregate, error) {
	expr, alias := s, ""
	if i := lastIndexTop(s, " as "); i >= 0 {
		expr, alias = strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+len(" as "):])
	}
	open := strings.IndexByte(expr, '(')
	if open < 0 || !strings.HasSuffix(expr, ")") {
		return aggregate{}, fmt.Errorf("logs: bad aggregate %q", s)
	}
	fn := strings.TrimSpace(expr[:open])
	args := splitTop(expr[open+1:len(expr)-1], ',')
	for i := range args {
		args[i] = strings.TrimSpace(args[i])
	}
	a := aggregate{fn: fn, alias: alias}
	if a.alias == "" {
		a.alias = expr
	}
	switch fn {
	case "count", "sum", "avg", "min", "max":
		if len(args) != 1 || args[0] == "" {
			return aggregate{}, fmt.Errorf("logs: %s wants one argument in %q", fn, s)
		}
		a.field = args[0]
		if fn != "count" && a.field == "*" {
			return aggregate{}, fmt.Errorf("logs: %s(*) not supported", fn)
		}
	case "pct":
		if len(args) != 2 {
			return aggregate{}, fmt.Errorf("logs: pct wants (field, percentile) in %q", s)
		}
		a.field = args[0]
		p, err := strconv.ParseFloat(args[1], 64)
		if err != nil || p < 0 || p > 100 {
			return aggregate{}, fmt.Errorf("logs: bad percentile in %q", s)
		}
		a.pct = p
	default:
		return aggregate{}, fmt.Errorf("logs: unknown aggregate %q", fn)
	}
	return a, nil
}

// renderAgg evaluates a numeric aggregate over the collected values.
// The tests' reference evaluator calls it too, so the two cannot
// drift in arithmetic or formatting.
func renderAgg(a aggregate, vals []float64) string {
	if len(vals) == 0 {
		return ""
	}
	var res float64
	switch a.fn {
	case "sum", "avg":
		for _, v := range vals {
			res += v
		}
		if a.fn == "avg" {
			res /= float64(len(vals))
		}
	case "min":
		res = vals[0]
		for _, v := range vals[1:] {
			if v < res {
				res = v
			}
		}
	case "max":
		res = vals[0]
		for _, v := range vals[1:] {
			if v > res {
				res = v
			}
		}
	case "pct":
		// Nearest-rank on the sorted sample — the same convention as
		// metrics.Percentile, so logs- and metrics-derived medians agree.
		sort.Float64s(vals)
		rank := int((a.pct*float64(len(vals)) + 99) / 100)
		if rank < 1 {
			rank = 1
		}
		if rank > len(vals) {
			rank = len(vals)
		}
		res = vals[rank-1]
	}
	return strconv.FormatFloat(res, 'g', -1, 64)
}

// ---- sort ----

type sortStage struct {
	field string
	desc  bool
}

func parseSort(rest string) (stage, error) {
	toks, err := tokens(rest)
	if err != nil {
		return nil, err
	}
	st := &sortStage{}
	switch len(toks) {
	case 1:
		st.field = toks[0]
	case 2:
		st.field = toks[0]
		switch toks[1] {
		case "asc":
		case "desc":
			st.desc = true
		default:
			return nil, fmt.Errorf("logs: sort direction %q not supported", toks[1])
		}
	default:
		return nil, fmt.Errorf("logs: sort wants `<field> [asc|desc]`, got %q", rest)
	}
	return st, nil
}

// ---- limit ----

type limitStage struct{ n int }

func parseLimit(rest string) (stage, error) {
	n, err := strconv.Atoi(strings.TrimSpace(rest))
	if err != nil || n < 0 {
		return nil, fmt.Errorf("logs: limit wants a non-negative integer, got %q", rest)
	}
	return &limitStage{n: n}, nil
}

// ---- lexing helpers ----

// splitNames splits a comma-separated name list.
func splitNames(s string) []string {
	var out []string
	for _, n := range strings.Split(s, ",") {
		n = strings.TrimSpace(n)
		if n != "" {
			out = append(out, n)
		}
	}
	return out
}

// tokens splits on whitespace, keeping double-quoted spans (quotes
// stripped) as single tokens.
func tokens(s string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			if inQuote {
				out = append(out, cur.String())
				cur.Reset()
				inQuote = false
			} else {
				flush()
				inQuote = true
			}
		case inQuote:
			cur.WriteByte(c)
		case c == ' ' || c == '\t' || c == '\n':
			flush()
		default:
			cur.WriteByte(c)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("logs: unterminated quote in %q", s)
	}
	flush()
	return out, nil
}

// lastIndexTop finds the last occurrence of sub outside quotes and
// parentheses (for splitting `... by ...` and `... as ...`).
func lastIndexTop(s, sub string) int {
	depth := 0
	inQuote := false
	last := -1
	for i := 0; i+len(sub) <= len(s); i++ {
		switch {
		case s[i] == '"':
			inQuote = !inQuote
			continue
		case inQuote:
			continue
		case s[i] == '(':
			depth++
			continue
		case s[i] == ')':
			depth--
			continue
		}
		if depth == 0 && s[i:i+len(sub)] == sub {
			last = i
		}
	}
	return last
}
