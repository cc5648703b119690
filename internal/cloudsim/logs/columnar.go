package logs

import (
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file is the columnar Insights evaluator. Query pipelines run
// here by default: instead of materializing one map per event (the
// legacy row evaluator, kept in the tests as queryRows), the executor
// works over the store's columns directly —
//
//   - sel holds the indices of currently-selected events in the
//     group's merged order; filter/limit compact it, sort permutes it;
//   - parse writes its captures into derived columns (value + set
//     bitmap) kept aligned with sel, and the capture spans are
//     substrings of the stored message, never copies;
//   - builtins (@timestamp, @message, @logGroup, @logStream) and
//     structured fields are read straight off the stream columns, as
//     views of the stream's bytes (see stream) or interned strings,
//     with the field name resolved to its key id once per run of
//     lookups and @timestamp rendering memoized per event on first
//     touch;
//   - nothing is copied until a cell leaves the store: the result's
//     cells are copies, so no caller holds a view of the store;
//   - stats aggregates by scanning column values per bucket, then
//     hands its aggregate rows to the legacy row stages for any
//     post-stats pipeline tail.
//
// The two evaluators must agree cell-for-cell on every pipeline —
// TestColumnarMatchesRows and FuzzInsightsQuery pin it, including the
// parse edge cases (adjacent wildcards, no-match rows, multi-capture
// ordering).

// litGlob is a parse glob compiled to a literal scanner: a leading
// literal, then one segment per wildcard, each terminated by the next
// literal. Matching is a sequence of strings.Index calls — no regexp
// machinery, no per-row submatch allocation. It is exactly equivalent
// to the lazy-capture regex the row path compiles: the unanchored
// match starts at the earliest occurrence of the leading literal, each
// non-final capture takes the shortest span to the next literal's
// earliest occurrence, and a trailing wildcard captures greedily to
// the end. (Earliest-occurrence scanning is complete: failing from the
// earliest positions means every later start fails too, so no
// backtracking is needed.)
type litGlob struct {
	lead string
	segs []globSeg
}

// globSeg is one wildcard: its capture ends at lit's next occurrence
// ("" for adjacent wildcards, which capture empty), or runs to the end
// of the input when greedy (trailing wildcard).
type globSeg struct {
	lit    string
	greedy bool
}

// compileGlob translates a parse glob into a literal scanner. Callers
// have already validated that the glob contains at least one "*".
func compileGlob(glob string) litGlob {
	parts := strings.SplitAfter(glob, "*")
	var g litGlob
	for i, part := range parts {
		star := strings.HasSuffix(part, "*")
		lit := part
		if star {
			lit = strings.TrimSuffix(part, "*")
		}
		if i == 0 {
			g.lead = lit
		} else if lit != "" || star {
			// A literal (possibly empty, for adjacent stars) terminates
			// the previous wildcard's capture.
			if lit != "" {
				g.segs[len(g.segs)-1].lit = lit
			}
		}
		if star {
			greedy := i == len(parts)-2 && parts[len(parts)-1] == ""
			g.segs = append(g.segs, globSeg{greedy: greedy})
		}
	}
	return g
}

// match appends the glob's captures on s to out and reports whether
// the glob matched. Captures are substrings of s.
func (g litGlob) match(s string, out []string) ([]string, bool) {
	pos := 0
	if g.lead != "" {
		i := strings.Index(s, g.lead)
		if i < 0 {
			return out, false
		}
		pos = i + len(g.lead)
	}
	for _, seg := range g.segs {
		switch {
		case seg.greedy:
			out = append(out, s[pos:])
			pos = len(s)
		case seg.lit == "":
			out = append(out, "")
		default:
			i := strings.Index(s[pos:], seg.lit)
			if i < 0 {
				return out, false
			}
			out = append(out, s[pos:pos+i])
			pos += i + len(seg.lit)
		}
	}
	return out, true
}

// dcol is one derived (parse-produced) column, aligned with the
// executor's selection: vals[i] belongs to selected row i, and set[i]
// distinguishes "parse matched here" from "fall through to the
// underlying event field" — real Insights leaves unmatched rows'
// fields unset rather than blanking them.
type dcol struct {
	vals []string
	set  []bool
}

// colExec evaluates the columnar stage prefix of a pipeline.
type colExec struct {
	svc     *Service // its lock is held for the whole run
	g       *group
	refs    []eventRef // windowed merged order, immutable
	sel     []int32    // indices into refs, in current row order
	derived map[string]*dcol
	tsMemo  []string // aligned with refs; "" = not yet rendered

	// The last field name lookup resolved, and its key id (keyOK is
	// false for a name no event has as a key).
	keyName string
	key     int32
	keyOK   bool
	keySet  bool
}

func newColExec(svc *Service, g *group, refs []eventRef) *colExec {
	sel := make([]int32, len(refs))
	for i := range sel {
		sel[i] = int32(i)
	}
	return &colExec{svc: svc, g: g, refs: refs, sel: sel}
}

// keyID resolves a field name to its interned key id, remembering the
// last name: a stage looks the same name up for every row.
func (ex *colExec) keyID(name string) (int32, bool) {
	if !ex.keySet || name != ex.keyName {
		ex.keyName, ex.keySet = name, true
		ex.key, ex.keyOK = ex.svc.keys.Lookup(name)
	}
	return ex.key, ex.keyOK
}

// lookup resolves a column value for selected row i with the same
// precedence the row evaluator's map ends up with: parse-derived
// bindings first, then structured event fields, then the builtins
// (the row path writes builtins into the map before copying Fields
// over them, so an event field shadows a same-named builtin). ok
// reports presence (count(f) semantics).
func (ex *colExec) lookup(name string, i int) (string, bool) {
	if d := ex.derived[name]; d != nil && d.set[i] {
		return d.vals[i], true
	}
	ref := ex.refs[ex.sel[i]]
	st := ex.g.stream(ref)
	if key, ok := ex.keyID(name); ok {
		for _, f := range st.fieldsAt(ref.i) {
			if f.key == key {
				return ex.svc.fieldVal(st, f), true
			}
		}
	}
	switch name {
	case "@timestamp":
		return ex.timestamp(ex.sel[i]), true
	case "@message":
		return st.msg(ref.i), true
	case "@logGroup":
		return ex.g.name, true
	case "@logStream":
		return st.name, true
	}
	return "", false
}

// timestamp renders (and memoizes) the @timestamp string for the event
// at refs position ri. Rendering is deferred to first touch so
// pipelines that never read @timestamp pay nothing for it.
func (ex *colExec) timestamp(ri int32) string {
	if ex.tsMemo == nil {
		ex.tsMemo = make([]string, len(ex.refs))
	}
	if ex.tsMemo[ri] == "" {
		ex.tsMemo[ri] = time.Unix(0, ex.g.time(ex.refs[ri])).UTC().Format("2006-01-02 15:04:05.000")
	}
	return ex.tsMemo[ri]
}

// applyFilter keeps the selected rows matching the predicate,
// compacting sel and every derived column in one pass.
func (ex *colExec) applyFilter(f *filterStage) {
	n := 0
	for i := range ex.sel {
		v, _ := ex.lookup(f.field, i)
		if !f.match(v) {
			continue
		}
		ex.sel[n] = ex.sel[i]
		for _, d := range ex.derived {
			d.vals[n], d.set[n] = d.vals[i], d.set[i]
		}
		n++
	}
	ex.sel = ex.sel[:n]
	for _, d := range ex.derived {
		d.vals, d.set = d.vals[:n], d.set[:n]
	}
}

// applyParse runs the glob over the source column, binding captures
// into derived columns. Rows the glob misses keep their previous
// binding (or fall through to the event field), like the row path.
func (ex *colExec) applyParse(p *parseStage) {
	if ex.derived == nil {
		ex.derived = make(map[string]*dcol)
	}
	cols := make([]*dcol, len(p.names))
	for i, name := range p.names {
		d := ex.derived[name]
		if d == nil {
			d = &dcol{vals: make([]string, len(ex.sel)), set: make([]bool, len(ex.sel))}
			ex.derived[name] = d
		}
		cols[i] = d
	}
	var caps []string
	for i := range ex.sel {
		src, _ := ex.lookup(p.field, i)
		var ok bool
		caps, ok = p.lg.match(src, caps[:0])
		if !ok {
			continue
		}
		for j, d := range cols {
			d.vals[i] = strings.TrimSpace(caps[j])
			d.set[i] = true
		}
	}
}

// applySort reorders the selection (and derived columns) by the same
// comparator as the row path: numeric when both cells parse, else
// lexicographic, stable.
func (ex *colExec) applySort(st *sortStage) {
	n := len(ex.sel)
	vals := make([]string, n)
	for i := range vals {
		vals[i], _ = ex.lookup(st.field, i)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(i, j int) bool {
		a, b := vals[perm[i]], vals[perm[j]]
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
	newSel := make([]int32, n)
	for i, p := range perm {
		newSel[i] = ex.sel[p]
	}
	ex.sel = newSel
	for _, d := range ex.derived {
		nv := make([]string, n)
		ns := make([]bool, n)
		for i, p := range perm {
			nv[i], ns[i] = d.vals[p], d.set[p]
		}
		d.vals, d.set = nv, ns
	}
}

// applyLimit truncates the selection and derived columns.
func (ex *colExec) applyLimit(l *limitStage) {
	if len(ex.sel) <= l.n {
		return
	}
	ex.sel = ex.sel[:l.n]
	for _, d := range ex.derived {
		d.vals, d.set = d.vals[:l.n], d.set[:l.n]
	}
}

// applyStats buckets the selection and computes the aggregates,
// producing plain rows — the pipeline continues row-wise from here
// (post-stats stages see aggregate rows, not events).
func (ex *colExec) applyStats(st *statsStage) ([]row, []string) {
	type colBucket struct {
		byVals []string
		idxs   []int
	}
	buckets := map[string]*colBucket{}
	var keys []string
	if len(st.by) == 0 {
		// Ungrouped stats always yield exactly one row, even over an
		// empty scan — count(*) of nothing is 0, not no-answer.
		buckets[""] = &colBucket{}
		keys = append(keys, "")
	}
	for i := range ex.sel {
		byVals := make([]string, len(st.by))
		for j, f := range st.by {
			byVals[j], _ = ex.lookup(f, i)
		}
		key := strings.Join(byVals, "\x00")
		b, ok := buckets[key]
		if !ok {
			b = &colBucket{byVals: byVals}
			buckets[key] = b
			keys = append(keys, key)
		}
		b.idxs = append(b.idxs, i)
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
			r[a.alias] = ex.computeAgg(a, b.idxs)
		}
		out = append(out, r)
	}
	return out, columns
}

// computeAgg mirrors aggregate.compute over column lookups: count(f)
// counts presence, numeric aggregates skip unset or unparsable cells.
func (ex *colExec) computeAgg(a aggregate, idxs []int) string {
	if a.fn == "count" {
		if a.field == "*" {
			return strconv.Itoa(len(idxs))
		}
		n := 0
		for _, i := range idxs {
			if _, ok := ex.lookup(a.field, i); ok {
				n++
			}
		}
		return strconv.Itoa(n)
	}
	var vals []float64
	for _, i := range idxs {
		v, ok := ex.lookup(a.field, i)
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

// materializeRows converts the current selection into the final result
// cells for the given output columns, each a copy (the cells leave the
// store).
func (ex *colExec) materializeRows(columns []string) [][]string {
	if len(ex.sel) == 0 {
		return nil
	}
	out := make([][]string, 0, len(ex.sel))
	for i := range ex.sel {
		cells := make([]string, len(columns))
		for c, name := range columns {
			v, _ := ex.lookup(name, i)
			cells[c] = strings.Clone(v)
		}
		out = append(out, cells)
	}
	return out
}

// runColumnar evaluates the pipeline over g's windowed refs: columnar
// stages until the first stats, then the legacy row stages for
// anything after it. Caller holds svc.mu.
func runColumnar(svc *Service, g *group, refs []eventRef, stages []stage) (*QueryResult, error) {
	ex := newColExec(svc, g, refs)
	columns := []string{"@timestamp", "@message"}
	var rows []row
	rowMode := false
	for _, st := range stages {
		if rowMode {
			var err error
			rows, columns, err = st.apply(rows, columns)
			if err != nil {
				return nil, err
			}
			continue
		}
		switch t := st.(type) {
		case *fieldsStage:
			columns = append([]string(nil), t.names...)
		case *filterStage:
			ex.applyFilter(t)
		case *parseStage:
			ex.applyParse(t)
		case *sortStage:
			ex.applySort(t)
		case *limitStage:
			ex.applyLimit(t)
		case *statsStage:
			rows, columns = ex.applyStats(t)
			rowMode = true
		}
	}
	res := &QueryResult{Columns: columns}
	if rowMode {
		for _, r := range rows {
			cells := make([]string, len(columns))
			for i, c := range columns {
				cells[i] = strings.Clone(r[c])
			}
			res.Rows = append(res.Rows, cells)
		}
	} else {
		res.Rows = ex.materializeRows(columns)
	}
	return res, nil
}
