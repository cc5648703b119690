package logs

import (
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file is the row-at-a-time reference evaluator for Insights
// pipelines: every event becomes a map, and every stage transforms the
// row slice. It is the readable statement of the semantics Query must
// reproduce. It shares only the parser and renderAgg with the column
// executor; in particular it compiles each parse glob to a regexp from
// the glob's text, so a bug in the literal scanner (compileGlob,
// litGlob.match) cannot hide behind a shared matcher.

// row is one event (or aggregate) flowing through the reference.
type row map[string]string

// queryRows evaluates query over a group's events in [from, to] the
// slow, obvious way.
func (s *Service) queryRows(group, query string, from, to time.Time) (*QueryResult, error) {
	stages, err := parseQuery(query)
	if err != nil {
		return nil, err
	}
	parts := splitTop(query, '|') // parseQuery's split: part i is stage i
	events := s.Events(group, from, to)
	rows := make([]row, 0, len(events))
	for _, e := range events {
		r := row{
			"@timestamp": e.Time.UTC().Format("2006-01-02 15:04:05.000"),
			"@message":   e.Message,
			"@logGroup":  e.Group,
			"@logStream": e.Stream,
		}
		for k, v := range e.Fields {
			r[k] = v
		}
		rows = append(rows, r)
	}
	columns := []string{"@timestamp", "@message"}
	for i, st := range stages {
		switch t := st.(type) {
		case *fieldsStage:
			columns = append([]string(nil), t.names...)
		case *filterStage:
			out := rows[:0]
			for _, r := range rows {
				if t.match(r[t.field]) {
					out = append(out, r)
				}
			}
			rows = out
		case *parseStage:
			re, err := globRegexp(parts[i])
			if err != nil {
				return nil, err
			}
			for _, r := range rows {
				m := re.FindStringSubmatch(byteRunes(r[t.field]))
				if m == nil {
					continue // no match: fields stay unset
				}
				for j, name := range t.names {
					r[name] = strings.TrimSpace(runeBytes(m[j+1]))
				}
			}
		case *statsStage:
			rows, columns = statsRows(t, rows)
		case *sortStage:
			sortRows(t, rows)
		case *limitStage:
			if len(rows) > t.n {
				rows = rows[:t.n]
			}
		default:
			return nil, fmt.Errorf("reference: unknown stage %T", st)
		}
	}
	res := &QueryResult{Columns: columns}
	for _, r := range rows {
		cells := make([]string, len(columns))
		for i, c := range columns {
			cells[i] = r[c]
		}
		res.Rows = append(res.Rows, cells)
	}
	return res, nil
}

// globRegexp compiles the glob of one `parse <field> "<glob>" as ...`
// stage's text into an unanchored regexp: each * followed by a literal
// captures lazily, so "Billed Duration: * ms" pulls out just the
// number; a trailing * captures greedily to the end of the message.
// This is the glob rule Query implements: a * spans any bytes,
// newlines included ((?s)), and literal glob text matches its own
// bytes exactly. A regexp reads its input as UTF-8 and would match an
// invalid byte against a literal U+FFFD, so the regexp is compiled
// over byteRunes of the glob and must be run over byteRunes of the
// input, with runeBytes turning its captures back.
func globRegexp(stageText string) (*regexp.Regexp, error) {
	toks, err := tokens(strings.TrimPrefix(strings.TrimSpace(stageText), "parse"))
	if err != nil {
		return nil, err
	}
	glob := toks[1]
	var re strings.Builder
	re.WriteString("(?s)")
	parts := strings.SplitAfter(glob, "*")
	for i, part := range parts {
		if !strings.HasSuffix(part, "*") {
			re.WriteString(regexp.QuoteMeta(byteRunes(part)))
			continue
		}
		re.WriteString(regexp.QuoteMeta(byteRunes(strings.TrimSuffix(part, "*"))))
		if i == len(parts)-2 && parts[len(parts)-1] == "" {
			re.WriteString("(.*)")
		} else {
			re.WriteString("(.*?)")
		}
	}
	return regexp.Compile(re.String())
}

// byteRunes spells each byte of s as the rune of the same value, so a
// regexp over the result compares bytes, valid UTF-8 or not.
func byteRunes(s string) string {
	out := make([]rune, len(s))
	for i := 0; i < len(s); i++ {
		out[i] = rune(s[i])
	}
	return string(out)
}

// runeBytes inverts byteRunes.
func runeBytes(s string) string {
	var out []byte
	for _, r := range s {
		out = append(out, byte(r))
	}
	return string(out)
}

// statsRows groups rows by the stage's by fields, sorted by key, and
// computes each aggregate per group into a fresh row. Fields are
// written by fields first, then aggregates in order, so a repeated
// output name keeps the value written last.
func statsRows(st *statsStage, rows []row) ([]row, []string) {
	type bucket struct {
		byVals []string
		rows   []row
	}
	buckets := map[string]*bucket{}
	var keys []string
	if len(st.by) == 0 {
		buckets[""] = &bucket{}
		keys = append(keys, "")
	}
	for _, r := range rows {
		byVals := make([]string, len(st.by))
		for i, f := range st.by {
			byVals[i] = r[f]
		}
		key := strings.Join(byVals, "\x00")
		b, ok := buckets[key]
		if !ok {
			b = &bucket{byVals: byVals}
			buckets[key] = b
			keys = append(keys, key)
		}
		b.rows = append(b.rows, r)
	}
	sort.Strings(keys)
	columns := append([]string(nil), st.by...)
	for _, a := range st.aggs {
		columns = append(columns, a.alias)
	}
	var out []row
	for _, key := range keys {
		b := buckets[key]
		r := row{}
		for i, f := range st.by {
			r[f] = b.byVals[i]
		}
		for _, a := range st.aggs {
			r[a.alias] = aggregateRows(a, b.rows)
		}
		out = append(out, r)
	}
	return out, columns
}

// aggregateRows evaluates one aggregate over a group's rows: count(f)
// counts rows where f is set; the numeric aggregates skip unset or
// non-numeric values.
func aggregateRows(a aggregate, rows []row) string {
	if a.fn == "count" {
		n := 0
		for _, r := range rows {
			if _, ok := r[a.field]; ok || a.field == "*" {
				n++
			}
		}
		return strconv.Itoa(n)
	}
	var vals []float64
	for _, r := range rows {
		v, ok := r[a.field]
		if !ok {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			continue
		}
		vals = append(vals, f)
	}
	return renderAgg(a, vals)
}

// sortRows orders rows stably by one field: numerically when both
// cells parse as numbers, else lexicographically.
func sortRows(st *sortStage, rows []row) {
	f := st.field
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i][f], rows[j][f]
		less := a < b
		if fa, errA := strconv.ParseFloat(a, 64); errA == nil {
			if fb, errB := strconv.ParseFloat(b, 64); errB == nil {
				less = fa < fb
			}
		}
		if st.desc {
			return !less && a != b
		}
		return less
	})
}
