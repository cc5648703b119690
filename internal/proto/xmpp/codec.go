package xmpp

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// asciiEsc maps each ASCII byte to what encoding/xml's escaper writes
// for it, in attribute values and character data alike: an entity or
// character reference for the eight metacharacters, U+FFFD for the
// other control bytes (outside XML's Char production), and "" for a
// byte written as it is.
var asciiEsc = func() (t [utf8.RuneSelf]string) {
	for c := 0; c < 0x20; c++ {
		t[c] = "\uFFFD"
	}
	t['"'] = "&#34;"
	t['\''] = "&#39;"
	t['&'] = "&amp;"
	t['<'] = "&lt;"
	t['>'] = "&gt;"
	t['\t'] = "&#x9;"
	t['\n'] = "&#xA;"
	t['\r'] = "&#xD;"
	return t
}()

// escaped lists the bytes asciiEsc writes as a reference, so the only
// references the decoder accepts.
const escaped = "\"'&<>\t\n\r"

// replaced reports whether encoding/xml writes U+FFFD in place of the
// non-ASCII rune r of width size: invalid UTF-8 (which includes encoded
// surrogates) and the noncharacters U+FFFE and U+FFFF.
func replaced(r rune, size int) bool {
	return r == utf8.RuneError && size == 1 || r == 0xFFFE || r == 0xFFFF
}

// plainLen returns the length of the longest prefix of s made of bytes
// written as they are: printable ASCII other than the double quote, the
// apostrophe, '&', '<' and '>'. It tests eight bytes per step as one
// word: each term below has its top bit set in some byte exactly when
// some byte of w is in the named class (borrows can misplace the
// flagged byte, never lose it).
func plainLen(s string) int {
	const lsb, msb = 0x0101010101010101, 0x8080808080808080
	i := 0
	for ; i+8 <= len(s); i += 8 {
		b := s[i : i+8]
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		quoteAmp := (w | 0x04*lsb) ^ 0x26*lsb // zero byte where '"' (0x22) or '&' (0x26)
		apos := w ^ 0x27*lsb                  // zero byte where '\'' (0x27)
		angle := (w | 0x02*lsb) ^ 0x3e*lsb    // zero byte where '<' (0x3c) or '>' (0x3e)
		t := w                                // non-ASCII: top bit already set
		t |= (w - 0x20*lsb) &^ w              // control byte
		t |= (quoteAmp - lsb) &^ quoteAmp
		t |= (apos - lsb) &^ apos
		t |= (angle - lsb) &^ angle
		if t&msb != 0 {
			break
		}
	}
	for i < len(s) && s[i] < utf8.RuneSelf && asciiEsc[s[i]] == "" {
		i++
	}
	return i
}

// escapedLen is the length of appendEscaped's output for s.
func escapedLen(s string) int {
	n := len(s)
	for i := 0; i < len(s); {
		if p := plainLen(s[i:]); p > 0 {
			i += p
			continue
		}
		if c := s[i]; c < utf8.RuneSelf {
			if e := asciiEsc[c]; e != "" {
				n += len(e) - 1
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if replaced(r, size) {
			n += len("\uFFFD") - size
		}
		i += size
	}
	return n
}

// appendEscaped appends s escaped exactly as encoding/xml's EscapeString
// escapes it. Runs of plain bytes are found a word at a time and copied
// whole; only non-ASCII bytes are decoded as runes.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if p := plainLen(s[i:]); p > 0 {
			i += p
			continue
		}
		if c := s[i]; c < utf8.RuneSelf {
			if e := asciiEsc[c]; e != "" {
				dst = append(dst, s[start:i]...)
				dst = append(dst, e...)
				start = i + 1
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if replaced(r, size) {
			dst = append(dst, s[start:i]...)
			dst = append(dst, "\uFFFD"...)
			start = i + size
		}
		i += size
	}
	return append(dst, s[start:]...)
}

// attrLen is the length appendAttr writes.
func attrLen(prefix, v string) int {
	if v == "" {
		return 0
	}
	return len(prefix) + escapedLen(v) + len(`"`)
}

// appendAttr appends an omitempty attribute: nothing when v is empty,
// else prefix (` name="`), the escaped value and the closing quote.
func appendAttr(dst []byte, prefix, v string) []byte {
	if v == "" {
		return dst
	}
	dst = append(dst, prefix...)
	dst = appendEscaped(dst, v)
	return append(dst, '"')
}

// elemLen is the length appendElem writes.
func elemLen(open, v, close string) int {
	if v == "" {
		return 0
	}
	return len(open) + escapedLen(v) + len(close)
}

// appendElem appends an omitempty child element holding character
// data: nothing when v is empty.
func appendElem(dst []byte, open, v, close string) []byte {
	if v == "" {
		return dst
	}
	dst = append(dst, open...)
	dst = appendEscaped(dst, v)
	return append(dst, close...)
}

// errNotCanonical is wrapped by every decode error other than
// ErrUnknownStanza: the input is not a byte sequence Encode writes.
var errNotCanonical = errors.New("xmpp: not a canonical stanza")

// reader parses one canonical stanza. It keeps the first error and
// turns every later call into a no-op returning zero values, so a
// stanza parser reads straight through and checks err once at the end.
type reader struct {
	s   string
	i   int
	err error
}

func (r *reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", errNotCanonical, what, r.i)
	}
}

// accept consumes lit and reports true if it comes next.
func (r *reader) accept(lit string) bool {
	if r.err != nil || !strings.HasPrefix(r.s[r.i:], lit) {
		return false
	}
	r.i += len(lit)
	return true
}

// expect consumes lit, which must come next.
func (r *reader) expect(lit string) {
	if r.err == nil && !r.accept(lit) {
		r.fail("expected " + strconv.Quote(lit))
	}
}

// root reads '<' and the root element's name, which must start with an
// ASCII letter; the name ends at whitespace, '/' or '>'.
func (r *reader) root() string {
	r.expect("<")
	if r.err != nil {
		return ""
	}
	rest := r.s[r.i:]
	end := strings.IndexAny(rest, " \t\r\n/>")
	if end <= 0 || !('a' <= rest[0]|0x20 && rest[0]|0x20 <= 'z') {
		r.fail("expected element name")
		return ""
	}
	r.i += end
	return rest[:end]
}

// attr reads an omitempty attribute whose prefix is ` name="`. An
// absent attribute reads as ""; a present one must not be empty, since
// the encoder would have left it out.
func (r *reader) attr(prefix string) string {
	if !r.accept(prefix) {
		return ""
	}
	v := r.text('"')
	if r.err == nil && v == "" {
		r.fail("empty omitempty attribute")
	}
	r.expect(`"`)
	return v
}

// elem reads an omitempty child element holding character data. An
// absent element reads as ""; a present one must not be empty.
func (r *reader) elem(open, close string) string {
	if !r.accept(open) {
		return ""
	}
	v := r.text('<')
	if r.err == nil && v == "" {
		r.fail("empty omitempty element")
	}
	r.expect(close)
	return v
}

// text reads an attribute value or character data up to term ('"' or
// '<', left unread) and undoes the encoder's escapes. It rejects every
// byte the encoder would have escaped, whether raw or as a reference
// the encoder does not write, and every rune it would have replaced
// with U+FFFD. A value without references is a substring of the input;
// one with references is built in a buffer of its own.
func (r *reader) text(term byte) string {
	if r.err != nil {
		return ""
	}
	s, i := r.s, r.i
	refs := false
	for i < len(s) {
		if p := plainLen(s[i:]); p > 0 {
			i += p
			continue
		}
		c := s[i]
		if c >= utf8.RuneSelf {
			rn, size := utf8.DecodeRuneInString(s[i:])
			if replaced(rn, size) {
				r.i = i
				r.fail("invalid character")
				return ""
			}
			i += size
			continue
		}
		if c == term {
			break
		}
		if c == '&' {
			if _, n := unescape(s[i:]); n > 0 {
				refs = true
				i += n
				continue
			}
		}
		r.i = i
		r.fail("unescaped or unknown reference")
		return ""
	}
	if i == len(s) {
		r.i = i
		r.fail("unterminated text")
		return ""
	}
	raw := s[r.i:i]
	r.i = i
	if !refs {
		return raw
	}
	var sb strings.Builder
	sb.Grow(len(raw))
	for {
		k := strings.IndexByte(raw, '&')
		if k < 0 {
			sb.WriteString(raw)
			return sb.String()
		}
		c, n := unescape(raw[k:])
		sb.WriteString(raw[:k])
		sb.WriteByte(c)
		raw = raw[k+n:]
	}
}

// unescape decodes the reference the encoder writes at the start of s,
// returning the byte and the reference's length, or 0, 0 if s starts
// with no such reference.
func unescape(s string) (byte, int) {
	for i := 0; i < len(escaped); i++ {
		if e := asciiEsc[escaped[i]]; strings.HasPrefix(s, e) {
			return escaped[i], len(e)
		}
	}
	return 0, 0
}
