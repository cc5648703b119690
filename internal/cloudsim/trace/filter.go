package trace

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/pricing"
)

// Query evaluates an X-Ray-style filter expression over the stored
// traces whose root started in [from, to] (zero bounds are open) and
// returns the matches in start order. Every candidate trace counts
// toward the scanned dimension whether or not it matches — scanning
// is what X-Ray bills.
//
// Grammar (keywords case-insensitive, AND binds tighter than OR):
//
//	expr    := or
//	or      := and ("OR" and)*
//	and     := unary ("AND" unary)*
//	unary   := "NOT" unary | "(" expr ")" | primary
//	primary := "service" "(" string ")"
//	         | "duration" cmp durationLiteral      e.g. duration > 500ms
//	         | "cost" cmp moneyLiteral             e.g. cost > $0.001
//	         | "annotation" "." key ("="|"!=") value
//	cmp     := "=" | "!=" | ">" | ">=" | "<" | "<="
//
// service(...) matches traces containing a segment of that service;
// duration compares the root span; cost compares the trace's
// list-price total against the book; annotation compares the value
// (as a string) on any segment, e.g. annotation.cold_start = true.
func (s *Store) Query(expr string, book *pricing.PriceBook, from, to time.Time) ([]TraceView, error) {
	if s == nil {
		return nil, nil
	}
	p := &filterParser{toks: lexFilter(expr), book: book}
	pred, err := p.parseOr()
	if err != nil {
		return nil, fmt.Errorf("filter %q: %w", expr, err)
	}
	if !p.eof() {
		return nil, fmt.Errorf("filter %q: trailing input at %q", expr, p.peek().text)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rows := s.windowLocked(from, to)
	s.scanned += int64(len(rows))
	var out []TraceView
	for _, row := range rows {
		if pred(s, row) {
			out = append(out, TraceView{s: s, row: row})
		}
	}
	return out, nil
}

// filterPred evaluates one predicate against a stored trace row. The
// store's lock is held by Query while predicates run.
type filterPred func(s *Store, row int32) bool

type filterToken struct {
	kind filterTokKind
	text string
}

type filterTokKind int

const (
	tokEOF filterTokKind = iota
	tokIdent
	tokString
	tokNumber // bare number, duration (500ms) or money ($0.001)
	tokOp     // = != > >= < <= ( ) .
)

func lexFilter(src string) []filterToken {
	var toks []filterToken
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n':
			i++
		case c == '(' || c == ')' || c == '.':
			toks = append(toks, filterToken{tokOp, string(c)})
			i++
		case c == '=':
			toks = append(toks, filterToken{tokOp, "="})
			i++
		case c == '!' && i+1 < len(src) && src[i+1] == '=':
			toks = append(toks, filterToken{tokOp, "!="})
			i += 2
		case c == '>' || c == '<':
			op := string(c)
			i++
			if i < len(src) && src[i] == '=' {
				op += "="
				i++
			}
			toks = append(toks, filterToken{tokOp, op})
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				j++
			}
			toks = append(toks, filterToken{tokString, src[i+1 : min(j, len(src))]})
			i = j + 1
		case c == '$' || c >= '0' && c <= '9':
			j := i
			if c == '$' {
				j++
			}
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.' ||
				src[j] >= 'a' && src[j] <= 'z' || src[j] == 'µ') {
				j++
			}
			toks = append(toks, filterToken{tokNumber, src[i:j]})
			i = j
		default:
			j := i
			for j < len(src) && (src[j] >= 'a' && src[j] <= 'z' || src[j] >= 'A' && src[j] <= 'Z' ||
				src[j] >= '0' && src[j] <= '9' || src[j] == '_' || src[j] == '-') {
				j++
			}
			if j == i {
				j++ // unknown byte: emit it and let the parser reject
			}
			toks = append(toks, filterToken{tokIdent, src[i:j]})
			i = j
		}
	}
	return append(toks, filterToken{kind: tokEOF})
}

type filterParser struct {
	toks []filterToken
	pos  int
	book *pricing.PriceBook
}

func (p *filterParser) peek() filterToken { return p.toks[p.pos] }
func (p *filterParser) next() filterToken { t := p.toks[p.pos]; p.pos++; return t }
func (p *filterParser) eof() bool         { return p.peek().kind == tokEOF }

func (p *filterParser) accept(kind filterTokKind, text string) bool {
	t := p.peek()
	if t.kind == kind && (text == "" || strings.EqualFold(t.text, text)) {
		p.pos++
		return true
	}
	return false
}

func (p *filterParser) expect(kind filterTokKind, text string) error {
	if !p.accept(kind, text) {
		return fmt.Errorf("expected %q, found %q", text, p.peek().text)
	}
	return nil
}

func (p *filterParser) parseOr() (filterPred, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokIdent, "or") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l, r := left, right
		left = func(s *Store, row int32) bool { return l(s, row) || r(s, row) }
	}
	return left, nil
}

func (p *filterParser) parseAnd() (filterPred, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.accept(tokIdent, "and") {
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l, r := left, right
		left = func(s *Store, row int32) bool { return l(s, row) && r(s, row) }
	}
	return left, nil
}

func (p *filterParser) parseUnary() (filterPred, error) {
	if p.accept(tokIdent, "not") {
		inner, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return func(s *Store, row int32) bool { return !inner(s, row) }, nil
	}
	if p.accept(tokOp, "(") {
		inner, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.parsePrimary()
}

func (p *filterParser) parsePrimary() (filterPred, error) {
	t := p.next()
	if t.kind != tokIdent {
		return nil, fmt.Errorf("expected a predicate, found %q", t.text)
	}
	switch strings.ToLower(t.text) {
	case "service":
		if err := p.expect(tokOp, "("); err != nil {
			return nil, err
		}
		name := p.next()
		if name.kind != tokString && name.kind != tokIdent {
			return nil, fmt.Errorf("service(...) wants a name, found %q", name.text)
		}
		if err := p.expect(tokOp, ")"); err != nil {
			return nil, err
		}
		svc := name.text
		return func(s *Store, row int32) bool {
			for i := s.segLo[row]; i < s.segHi[row]; i++ {
				if s.svcs.Name(s.segs.At(i).svc) == svc {
					return true
				}
			}
			return false
		}, nil

	case "duration":
		op, lit, err := p.cmpAndLiteral()
		if err != nil {
			return nil, err
		}
		want, err := time.ParseDuration(lit)
		if err != nil {
			return nil, fmt.Errorf("bad duration %q: %w", lit, err)
		}
		return func(s *Store, row int32) bool {
			return cmpInt64(int64(s.durLocked(s.segLo[row])), int64(want), op)
		}, nil

	case "cost":
		op, lit, err := p.cmpAndLiteral()
		if err != nil {
			return nil, err
		}
		dollars, err := strconv.ParseFloat(strings.TrimPrefix(lit, "$"), 64)
		if err != nil {
			return nil, fmt.Errorf("bad money %q: %w", lit, err)
		}
		want := pricing.FromDollars(dollars)
		book := p.book
		if book == nil {
			book = pricing.Default2017()
		}
		return func(s *Store, row int32) bool {
			return cmpInt64(s.traceCostLocked(row, book).Nanodollars(), want.Nanodollars(), op)
		}, nil

	case "annotation":
		if err := p.expect(tokOp, "."); err != nil {
			return nil, err
		}
		key := p.next()
		if key.kind != tokIdent {
			return nil, fmt.Errorf("annotation wants a key, found %q", key.text)
		}
		op := p.next()
		if op.kind != tokOp || op.text != "=" && op.text != "!=" {
			return nil, fmt.Errorf("annotation.%s wants = or !=, found %q", key.text, op.text)
		}
		val := p.next()
		if val.kind != tokString && val.kind != tokIdent && val.kind != tokNumber {
			return nil, fmt.Errorf("annotation.%s wants a value, found %q", key.text, val.text)
		}
		k, want, eq := key.text, val.text, op.text == "="
		return func(s *Store, row int32) bool {
			id, ok := s.annoKeys.Lookup(k)
			if !ok {
				return false
			}
			for i := s.segLo[row]; i < s.segHi[row]; i++ {
				r := s.segs.At(i)
				for a := r.annoLo; a < r.annoHi; a++ {
					if s.annos.At(a).key == id && (s.annoVal(a) == want) == eq {
						return true
					}
				}
			}
			return false
		}, nil
	}
	return nil, fmt.Errorf("unknown predicate %q", t.text)
}

func (p *filterParser) cmpAndLiteral() (string, string, error) {
	op := p.next()
	if op.kind != tokOp || op.text == "(" || op.text == ")" || op.text == "." {
		return "", "", fmt.Errorf("expected a comparison, found %q", op.text)
	}
	lit := p.next()
	if lit.kind != tokNumber {
		return "", "", fmt.Errorf("expected a literal after %q, found %q", op.text, lit.text)
	}
	return op.text, lit.text, nil
}

func cmpInt64(got, want int64, op string) bool {
	switch op {
	case "=":
		return got == want
	case "!=":
		return got != want
	case ">":
		return got > want
	case ">=":
		return got >= want
	case "<":
		return got < want
	case "<=":
		return got <= want
	}
	return false
}
