package analysis

import (
	"fmt"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// AllowEntry is one allowlisted finding. Entries are scoped to an
// analyzer and a file (optionally one line of it) and must carry a
// justification — an unexplained suppression is itself a finding.
type AllowEntry struct {
	Analyzer string
	// File is slash-separated and relative to the module root.
	File string
	// Line restricts the entry to one line; 0 allows the whole file.
	Line          int
	Justification string
	// DriftLine is the line of the finding a line-scoped entry bound to
	// by drift, set by Filter; 0 when the entry matched its own line or
	// nothing.
	DriftLine int

	used bool
}

// Symbol is the declaration a line-scoped entry names: the leading
// token of its justification, qualified or not — "regMu", "registry:",
// "Connection.Send" or "(*Client).Join:" name regMu, registry, Send and
// Join. An entry binds only to a finding whose Symbol that is, so an
// entry whose line comes to hold another declaration's finding is not
// silently accepted under the wrong justification. "" when the
// justification does not open with an identifier.
func (e *AllowEntry) Symbol() string {
	tok, _, _ := strings.Cut(e.Justification, " ")
	tok = strings.TrimRight(tok, ":;,")
	if i := strings.LastIndexByte(tok, '.'); i >= 0 {
		tok = tok[i+1:]
	}
	if !token.IsIdentifier(tok) {
		return ""
	}
	return tok
}

// binds reports whether e may suppress f, given that they already
// agree on analyzer and file: a file-scoped entry takes every finding,
// and a line-scoped one only a finding of the declaration it names (a
// finding with no Symbol, built by hand, takes any).
func (e *AllowEntry) binds(f Finding) bool {
	return e.Line == 0 || f.Symbol == "" || f.Symbol == e.Symbol()
}

// Target renders the entry's scope as file[:line], for messages.
func (e *AllowEntry) Target() string {
	if e.Line > 0 {
		return fmt.Sprintf("%s:%d", e.File, e.Line)
	}
	return e.File
}

// ParseAllowFile reads a .diylint-allow file. Each non-blank,
// non-comment line has the form
//
//	<analyzer> <file>[:<line>] # <justification>
//
// and the justification is mandatory.
func ParseAllowFile(path string) ([]*AllowEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseAllow(string(data), path)
}

func parseAllow(src, name string) ([]*AllowEntry, error) {
	var entries []*AllowEntry
	known := make(map[string]bool)
	for _, a := range AnalyzerNames() {
		known[a] = true
	}
	for i, line := range strings.Split(src, "\n") {
		lineNo := i + 1
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			continue
		}
		spec, justification, found := strings.Cut(trimmed, "#")
		if !found || strings.TrimSpace(justification) == "" {
			return nil, fmt.Errorf("%s:%d: allowlist entry needs a `# justification` explaining why the finding is acceptable", name, lineNo)
		}
		fields := strings.Fields(spec)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: want `<analyzer> <file>[:<line>] # <justification>`, got %q", name, lineNo, trimmed)
		}
		analyzer, target := fields[0], fields[1]
		if !known[analyzer] {
			return nil, fmt.Errorf("%s:%d: unknown analyzer %q (have %s)", name, lineNo, analyzer, strings.Join(AnalyzerNames(), ", "))
		}
		entry := &AllowEntry{
			Analyzer:      analyzer,
			File:          target,
			Justification: strings.TrimSpace(justification),
		}
		if file, lineStr, ok := strings.Cut(target, ":"); ok {
			n, err := strconv.Atoi(lineStr)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("%s:%d: bad line number in %q", name, lineNo, target)
			}
			entry.File, entry.Line = file, n
		}
		entry.File = filepath.ToSlash(entry.File)
		entries = append(entries, entry)
	}
	return entries, nil
}

// Filter drops findings matched by an allow entry and returns the
// survivors, the entries that matched nothing (stale suppressions
// worth cleaning up), and the entries that matched only by drift (line
// numbers to correct).
//
// Matching is two-phase. First, exact: same analyzer, same file, and —
// for line-scoped entries — the same line and the declaration the
// entry names (AllowEntry.Symbol). Then, drift: a line-scoped entry
// that matched nothing binds to the nearest remaining finding of the
// same analyzer in the same file whose declaration it names, so an
// unrelated edit higher in the file never lets a justified finding
// through. The bound finding stays suppressed, but the entry is
// returned as drifted, with DriftLine naming the line it now matches,
// so the allowlist is corrected rather than left to point at the wrong
// line. That includes an entry whose own line holds another
// declaration's finding, as when two adjacent entries trade places:
// neither is accepted there. An entry suppresses at most one drifted
// finding; only entries that match nothing at all — the finding is
// gone, or the analyzer, file or declaration changed — are reported
// stale.
func Filter(findings []Finding, entries []*AllowEntry, root string) (kept []Finding, stale, drifted []*AllowEntry) {
	rels := make([]string, len(findings))
	suppressed := make([]bool, len(findings))
	for i, f := range findings {
		rel := f.Pos.Filename
		if r, err := filepath.Rel(root, rel); err == nil {
			rel = filepath.ToSlash(r)
		}
		rels[i] = rel
		for _, e := range entries {
			if e.Analyzer == f.Analyzer && e.File == rel && (e.Line == 0 || e.Line == f.Pos.Line) && e.binds(f) {
				e.used = true
				suppressed[i] = true
			}
		}
	}
	for _, e := range entries {
		if e.used || e.Line == 0 {
			continue
		}
		best := -1
		for i, f := range findings {
			if suppressed[i] || f.Analyzer != e.Analyzer || rels[i] != e.File || !e.binds(f) {
				continue
			}
			if best == -1 || absInt(f.Pos.Line-e.Line) < absInt(findings[best].Pos.Line-e.Line) {
				best = i
			}
		}
		if best >= 0 {
			e.used = true
			e.DriftLine = findings[best].Pos.Line
			suppressed[best] = true
			drifted = append(drifted, e)
		}
	}
	for i, f := range findings {
		if !suppressed[i] {
			kept = append(kept, f)
		}
	}
	for _, e := range entries {
		if !e.used {
			stale = append(stale, e)
		}
	}
	return kept, stale, drifted
}

func absInt(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
