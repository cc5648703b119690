// Package canonjson holds the primitives of the hand-written codecs for
// the sealed documents the apps rewrite on every request: chat's room
// document and history chunks, email's mailbox index, the file-drop
// manifest and the IoT device registry. The same primitives encode
// those apps' other function output (offer, command and alert notices,
// list and dashboard responses) and read the two request bodies with a
// fast path, file-drop uploads and IoT reports.
//
// The appenders write exactly the bytes encoding/json's Marshal writes
// for the same Go value (HTML-escaped strings, ES6 floats, RFC 3339
// times, sorted map keys), so a document encoded here seals to the same
// size, bills the same transfer bytes and pins the same goldens as
// under encoding/json.
//
// Reader is not a general JSON parser. It accepts only the appenders'
// canonical bytes (no whitespace, only the escapes the encoder emits,
// shortest numbers, ascending map keys) and rejects anything else
// instead of interpreting it. Its results equal json.Unmarshal's for
// those bytes. A sealed document was written by the appenders, so its
// parser has no other path; a request body comes from outside, so its
// decoder hands whatever the Reader rejects to json.Unmarshal.
//
// A document rewritten with one array grown by an element need not
// decode that array at all: Reader.Keep validates it and keeps its
// bytes as a Kept, which copies back out as the appenders would
// re-encode it, open for the new element or whole.
package canonjson

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"
	"unsafe"
)

const hex = "0123456789abcdef"

// safe marks the ASCII bytes encoding/json writes unescaped with HTML
// escaping on: everything printable except '"', '\\', '<', '>' and '&'.
var safe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// plainLen returns the length of the longest prefix of s made of safe
// bytes: printable ASCII other than '"', '\\', '<', '>' and '&', which
// AppendString copies as they are and Str accepts raw. It tests eight
// bytes per step as one word: each term below has its top bit set in
// some byte exactly when some byte of w is in the named class (borrows
// can misplace the flagged byte, never lose it).
func plainLen(s string) int {
	const lsb, msb = 0x0101010101010101, 0x8080808080808080
	i := 0
	for ; i+8 <= len(s); i += 8 {
		b := s[i : i+8]
		w := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		quoteAmp := (w | 0x04*lsb) ^ 0x26*lsb // zero byte where '"' (0x22) or '&' (0x26)
		angle := (w | 0x02*lsb) ^ 0x3e*lsb    // zero byte where '<' (0x3c) or '>' (0x3e)
		backslash := w ^ 0x5c*lsb             // zero byte where '\\'
		t := w                                // non-ASCII: top bit already set
		t |= (w - 0x20*lsb) &^ w              // control byte
		t |= (quoteAmp - lsb) &^ quoteAmp
		t |= (angle - lsb) &^ angle
		t |= (backslash - lsb) &^ backslash
		if t&msb != 0 {
			break
		}
	}
	for i < len(s) && s[i] < utf8.RuneSelf && safe[s[i]] {
		i++
	}
	return i
}

// AppendString appends s as a JSON string, escaped exactly as
// encoding/json escapes it: '<', '>', '&' and control bytes as \u00XX
// (except the short escapes \b \f \n \r \t), '"' and '\\' with a
// backslash, invalid UTF-8 as \ufffd, and U+2028/U+2029 as \u2028
// and \u2029.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if n := plainLen(s[i:]); n > 0 {
			i += n
			continue
		}
		if b := s[i]; b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendStrings appends a string slice as encoding/json does: null for
// a nil slice, [] for an empty one.
func AppendStrings(dst []byte, list []string) []byte {
	if list == nil {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, s := range list {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, s)
	}
	return append(dst, ']')
}

// Longest outputs of AppendFloat and AppendTime, quotes included, for
// encoders that size their buffer up front.
const (
	MaxFloatLen = len("-0.0000012345678901234567")
	MaxTimeLen  = len(`"2006-01-02T15:04:05.999999999-07:00"`)
)

// Headroom is the spare capacity an encoder leaves beyond n bytes of
// unescaped output (each escape adds one to five bytes): about 3%, so a
// document with an escape every 30 bytes still encodes into the buffer
// it sized up front.
func Headroom(n int) int { return n/32 + 64 }

// AppendInt appends an integer in decimal.
func AppendInt(dst []byte, v int) []byte { return strconv.AppendInt(dst, int64(v), 10) }

// IntLen is the number of bytes AppendInt writes for v.
func IntLen(v int) int {
	n := 1
	if v < 0 {
		n++
	}
	for v >= 10 || v <= -10 {
		v /= 10
		n++
	}
	return n
}

// ErrUnsupportedFloat reports a NaN or infinite float, which JSON
// cannot carry (encoding/json refuses them too).
var ErrUnsupportedFloat = errors.New("canonjson: unsupported float value")

// AppendFloat appends a float64 by encoding/json's ES6 rule: 'f'
// format, except 'e' when the magnitude is below 1e-6 or at least
// 1e21, with a one-digit negative exponent written e-7 rather than
// e-07.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, ErrUnsupportedFloat
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// AppendTime appends t as a quoted RFC 3339 timestamp with nanoseconds:
// the bytes of t.MarshalJSON, which wraps MarshalText. It formats with
// AppendFormat(RFC3339Nano), the same formatter without MarshalText's
// per-call allocation, and applies the same range check: a year outside
// [0,9999] or a zone offset of 24 hours or more is an error.
func AppendTime(dst []byte, t time.Time) ([]byte, error) {
	dst = append(dst, '"')
	n0 := len(dst)
	dst = t.AppendFormat(dst, time.RFC3339Nano)
	num2 := func(b []byte) byte { return 10*(b[0]-'0') + (b[1] - '0') }
	switch {
	case dst[n0+len("9999")] != '-':
		return dst[:n0-1], errors.New("canonjson: time year outside of range [0,9999]")
	case dst[len(dst)-1] != 'Z':
		c := dst[len(dst)-len("Z07:00")]
		if ('0' <= c && c <= '9') || num2(dst[len(dst)-len("07:00"):]) >= 24 {
			return dst[:n0-1], errors.New("canonjson: time zone hour outside of range [0,23]")
		}
	}
	return append(dst, '"'), nil
}

// SortedKeys appends m's keys to buf in ascending order, the order in
// which json.Marshal writes a map, and returns the extended slice. A
// caller that passes a stack array's empty slice sorts small maps
// without allocating.
func SortedKeys[V any](buf []string, m map[string]V) []string {
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// AppendFloatMap appends a map[string]float64 as encoding/json does:
// null for a nil map, otherwise an object with the keys in ascending
// order.
func AppendFloatMap(dst []byte, m map[string]float64) ([]byte, error) {
	if m == nil {
		return append(dst, "null"...), nil
	}
	var stack [16]string
	dst = append(dst, '{')
	for i, k := range SortedKeys(stack[:0], m) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, k)
		dst = append(dst, ':')
		var err error
		if dst, err = AppendFloat(dst, m[k]); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// FloatMapLen bounds the length AppendFloatMap writes for m if no key
// needs escaping.
func FloatMapLen(m map[string]float64) int {
	n := len("null")
	for k := range m {
		n += len(k) + len(`"":,`) + MaxFloatLen
	}
	return n
}

// ErrNotCanonical is wrapped by every Reader error: the input is not
// the byte sequence the appenders would have written.
var ErrNotCanonical = errors.New("canonjson: not canonical encoder output")

// Reader parses canonical JSON written by the appenders. It keeps the
// first error and turns every later call into a no-op returning zero
// values, so a document parser reads straight through and checks Err
// once at the end.
//
// Strings without escapes are slices of the input itself; strings with
// escapes are decoded into one growing buffer shared by the whole
// document. A sealed document's input is a plaintext opened into the
// lambda container's arena, which is zeroed when the invocation ends:
// a string read from it that must outlive the invocation (a response,
// a map key a service keeps, a log field) is copied first.
type Reader struct {
	src []byte          // the input, for times and base64 (both parse []byte)
	s   string          // src viewed as a string; unescaped strings slice it
	esc strings.Builder // decoded escaped strings, sliced by Str
	i   int
	err error
	// replaced counts the \ufffd escapes in the strings read so far,
	// for Keep and StrEncoded.
	replaced int
}

// NewReader returns a Reader over src and takes ownership of it: the
// strings it returns share src's memory instead of copying it, so
// nothing may modify src while they are in use. The sealed documents it
// parses are freshly opened envelope plaintexts that nothing else
// references, zeroed only when their invocation ends (see Reader); a
// caller reading a buffer it does not own (a request body) copies the
// strings it keeps, or the buffer, first.
func NewReader(src []byte) *Reader {
	return &Reader{src: src, s: unsafe.String(unsafe.SliceData(src), len(src))}
}

// Err returns the first error, or nil.
func (r *Reader) Err() error { return r.err }

// Rest returns the unread part of the input.
func (r *Reader) Rest() string {
	if r.err != nil {
		return ""
	}
	return r.s[r.i:]
}

// Done returns the first error, or an error if input remains unread.
func (r *Reader) Done() error {
	if r.err == nil && r.i != len(r.s) {
		r.fail("trailing bytes")
	}
	return r.err
}

// Reject records an error for input the caller finds non-canonical,
// such as a field encoding/json's omitempty would have dropped.
func (r *Reader) Reject(what string) { r.fail(what) }

func (r *Reader) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: %s at offset %d", ErrNotCanonical, what, r.i)
	}
}

// Expect consumes lit, which must come next.
func (r *Reader) Expect(lit string) {
	if r.err != nil {
		return
	}
	if !strings.HasPrefix(r.s[r.i:], lit) {
		r.fail("expected " + strconv.Quote(lit))
		return
	}
	r.i += len(lit)
}

// Accept consumes lit and reports true if it comes next.
func (r *Reader) Accept(lit string) bool {
	if r.err != nil || !strings.HasPrefix(r.s[r.i:], lit) {
		return false
	}
	r.i += len(lit)
	return true
}

// More reports whether an array or object has another element: it
// consumes the closing byte and returns false at the end, and requires
// and consumes the ',' separator before every element but the first.
func (r *Reader) More(close byte, first bool) bool {
	if r.err != nil {
		return false
	}
	if r.i < len(r.s) && r.s[r.i] == close {
		r.i++
		return false
	}
	if !first {
		r.Expect(",")
	}
	return r.err == nil
}

// Int reads an integer: an optional '-' and digits without a leading
// zero (and no "-0"), as strconv.AppendInt writes it.
func (r *Reader) Int() int {
	if r.err != nil {
		return 0
	}
	s, i := r.s, r.i
	neg := i < len(s) && s[i] == '-'
	if neg {
		i++
	}
	start := i
	var v uint64
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		d := uint64(s[i] - '0')
		if v > (math.MaxUint64-d)/10 {
			r.fail("integer overflow")
			return 0
		}
		v = v*10 + d
		i++
	}
	switch n := i - start; {
	case n == 0:
		r.fail("expected integer")
		return 0
	case n > 1 && s[start] == '0', neg && v == 0:
		r.fail("non-canonical integer")
		return 0
	case !neg && v > math.MaxInt, neg && v > -math.MinInt:
		r.fail("integer overflow")
		return 0
	}
	r.i = i
	if neg {
		return int(-v)
	}
	return int(v)
}

// Float reads a float64 and requires it to be exactly what AppendFloat
// writes for the parsed value.
func (r *Reader) Float() float64 {
	if r.err != nil {
		return 0
	}
	s, i := r.s, r.i
	for i < len(s) && strings.IndexByte("0123456789.eE+-", s[i]) >= 0 {
		i++
	}
	tok := s[r.i:i]
	f, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		r.fail("bad float")
		return 0
	}
	var buf [32]byte
	if canon, err := AppendFloat(buf[:0], f); err != nil || string(canon) != tok {
		r.fail("non-canonical float")
		return 0
	}
	r.i = i
	return f
}

// Bool reads true or false.
func (r *Reader) Bool() bool {
	if r.Accept("true") {
		return true
	}
	if !r.Accept("false") {
		r.fail("expected bool")
	}
	return false
}

// Time reads a quoted RFC 3339 timestamp the way time.Time's
// UnmarshalJSON does: the quoted bytes go to UnmarshalText unescaped.
// UnmarshalText also takes forms AppendTime never writes (a fraction
// with trailing zeros, "+00:00" for "Z"), so the value must re-encode
// to exactly the bytes read.
func (r *Reader) Time() time.Time {
	if r.err != nil {
		return time.Time{}
	}
	if !strings.HasPrefix(r.s[r.i:], `"`) {
		r.fail("expected time")
		return time.Time{}
	}
	end := strings.IndexByte(r.s[r.i+1:], '"')
	if end < 0 {
		r.fail("unterminated time")
		return time.Time{}
	}
	raw := r.src[r.i+1 : r.i+1+end]
	var t time.Time
	if err := t.UnmarshalText(raw); err != nil {
		r.fail("bad time")
		return time.Time{}
	}
	var buf [MaxTimeLen]byte
	if canon, err := AppendTime(buf[:0], t); err != nil || string(canon[1:len(canon)-1]) != string(raw) {
		r.fail("non-canonical time")
		return time.Time{}
	}
	r.i += end + 2
	return t
}

// strictBase64 is the decoding json.Marshal's []byte encoding inverts:
// standard alphabet, padded, zero padding bits.
var strictBase64 = base64.StdEncoding.Strict()

// Bytes reads a []byte as json.Unmarshal fills one: null is a nil
// slice, and a string holds the bytes in base64, which must be exactly
// what json.Marshal writes; "" is a non-nil empty slice. The result is
// a new slice, not a view of the input.
func (r *Reader) Bytes() []byte {
	if r.err != nil || r.Accept("null") {
		return nil
	}
	if !strings.HasPrefix(r.s[r.i:], `"`) {
		r.fail("expected base64 string")
		return nil
	}
	// The base64 alphabet has no '\\', so the first quote ends the
	// string; an escape inside it fails to decode below.
	end := strings.IndexByte(r.s[r.i+1:], '"')
	if end < 0 {
		r.fail("unterminated string")
		return nil
	}
	enc := r.src[r.i+1 : r.i+1+end]
	out := make([]byte, base64.StdEncoding.DecodedLen(len(enc)))
	n, err := strictBase64.Decode(out, enc)
	// Even strict decoding skips '\r' and '\n', which JSON does not allow
	// raw in a string; n decoded bytes re-encode to exactly len(enc)
	// bytes only if there were none.
	if err != nil || base64.StdEncoding.EncodedLen(n) != len(enc) {
		r.fail("non-canonical base64")
		return nil
	}
	r.i += end + 2
	return out[:n]
}

// Str reads a JSON string. A string without escapes is a slice of the
// input; one with escapes is decoded into the Reader's escape buffer
// and sliced from it. Only the bytes AppendString writes are accepted:
// raw control bytes, '<', '>', '&', invalid UTF-8, U+2028 and U+2029
// are errors, as is any escape AppendString would not have used.
func (r *Reader) Str() string {
	start := r.i + 1
	end, n, escaped := r.scanStr()
	if end < 0 {
		return ""
	}
	r.i = end + 1
	if !escaped {
		return r.s[start:end]
	}
	return r.unescape(r.s[start:end], n)
}

// StrLen reads a JSON string as Str does, accepting exactly the same
// bytes, and returns the length in bytes of the string Str would
// return, without decoding it.
func (r *Reader) StrLen() int {
	end, n, _ := r.scanStr()
	if end < 0 {
		return 0
	}
	r.i = end + 1
	return n
}

// StrEncoded reads a string as Str does, accepting exactly the same
// bytes, and returns AppendString's encoding of the string Str would
// return, quotes included, without decoding it. That is the bytes read,
// a view of the input, unless they hold a \ufffd escape (see
// Kept.Append), in which case it is a new slice. Decoded strings are
// valid UTF-8, on which AppendString is injective, so two strings read
// this way are equal exactly when their encodings are, and a string
// read is equal to a valid UTF-8 string s exactly when its encoding is
// AppendString(s).
func (r *Reader) StrEncoded() []byte {
	start, replaced := r.i, r.replaced
	end, _, _ := r.scanStr()
	if end < 0 {
		return nil
	}
	r.i = end + 1
	if r.replaced == replaced {
		return r.src[start:r.i]
	}
	return appendReencoded(nil, r.src[start:r.i])
}

// Kept is an array a Reader validated but did not decode, kept as its
// encoded bytes, for a document that writes the array back unchanged or
// with elements appended: copying the bytes costs far less than
// decoding and re-encoding every element. The bytes are a view of the
// Reader's input, so they are only ever copied, never written, and for
// an opened document they die with the invocation, as the Reader's
// strings do. The zero Kept is null.
type Kept struct {
	raw      []byte // the array as read, nil for null
	n        int    // its element count
	reencode bool   // it holds a \ufffd escape
}

// Keep reads null or an array and keeps it encoded. It calls elem to
// read each element, which must accept exactly the bytes the array's
// decoder accepts for one element but need decode none of it (StrLen
// and StrEncoded read strings without decoding them).
func (r *Reader) Keep(elem func()) Kept {
	if r.Accept("null") {
		return Kept{}
	}
	start, replaced := r.i, r.replaced
	r.Expect("[")
	var k Kept
	for first := true; r.More(']', first); first = false {
		elem()
		k.n++
	}
	if r.err != nil {
		return Kept{}
	}
	k.raw, k.reencode = r.src[start:r.i], r.replaced != replaced
	return k
}

// Bytes returns the array as read, nil for null.
func (k Kept) Bytes() []byte { return k.raw }

// Append appends the array as the appenders would write the value it
// decodes to. That is its bytes as read, with one exception: a \ufffd
// escape, which AppendString writes only for invalid UTF-8, decodes to
// a valid U+FFFD, which AppendString writes raw. Every other string,
// number and literal the Reader accepts re-encodes to itself.
func (k Kept) Append(dst []byte) []byte {
	if k.raw == nil {
		return append(dst, "null"...)
	}
	return k.appendRaw(dst, k.raw)
}

// AppendOpen appends the array as Append does, but open for one more
// element: without its closing bracket and with the comma the element
// needs, or just "[" for null. The caller appends the element and "]".
func (k Kept) AppendOpen(dst []byte) []byte {
	if k.raw == nil {
		return append(dst, '[')
	}
	dst = k.appendRaw(dst, k.raw[:len(k.raw)-1])
	if k.n > 0 {
		dst = append(dst, ',')
	}
	return dst
}

func (k Kept) appendRaw(dst, raw []byte) []byte {
	if k.reencode {
		return appendReencoded(dst, raw)
	}
	return append(dst, raw...)
}

// appendReencoded appends src, bytes a Reader accepted, with each
// \ufffd escape written as the raw U+FFFD it decodes to. In those bytes
// every backslash opens an escape inside a string, so no string
// tracking is needed.
func appendReencoded(dst, src []byte) []byte {
	for {
		k := bytes.IndexByte(src, '\\')
		if k < 0 {
			return append(dst, src...)
		}
		dst = append(dst, src[:k]...)
		src = src[k:]
		switch {
		case bytes.HasPrefix(src, []byte(`\ufffd`)):
			dst = utf8.AppendRune(dst, utf8.RuneError)
			src = src[len(`\ufffd`):]
		case len(src) > 1 && src[1] == 'u':
			dst = append(dst, src[:len(`\u0000`)]...)
			src = src[len(`\u0000`):]
		default:
			dst = append(dst, src[:len(`\n`)]...)
			src = src[len(`\n`):]
		}
	}
}

// scanStr validates the JSON string at the read position and returns
// the offset of its closing quote, its decoded length, and whether it
// holds an escape. It leaves the position alone; on an error (or an
// earlier one) it returns end -1.
func (r *Reader) scanStr() (end, n int, escaped bool) {
	if r.err != nil {
		return -1, 0, false
	}
	s := r.s
	i := r.i
	if i >= len(s) || s[i] != '"' {
		r.fail("expected string")
		return -1, 0, false
	}
	i++
	start := i
	shrink := 0 // bytes the escapes seen so far drop when decoded
	for i < len(s) {
		if n := plainLen(s[i:]); n > 0 {
			i += n
			continue
		}
		c := s[i]
		if c < utf8.RuneSelf {
			switch c {
			case '"':
				return i, i - start - shrink, shrink > 0
			case '\\':
				v, w := escape(s[i:])
				if w == 0 {
					r.i = i
					r.fail("non-canonical escape")
					return -1, 0, false
				}
				if v == utf8.RuneError {
					r.replaced++
				}
				i += w
				shrink += w - utf8.RuneLen(v)
				continue
			}
			r.i = i
			r.fail("unescaped byte in string")
			return -1, 0, false
		}
		n, ok := rawRune(s[i:])
		if !ok {
			r.i = i
			r.fail("invalid or unescaped rune in string")
			return -1, 0, false
		}
		i += n
	}
	r.fail("unterminated string")
	return -1, 0, false
}

// rawRune reports the width of the valid UTF-8 rune at the start of s,
// and false for invalid UTF-8 or U+2028/U+2029, which the encoder
// always escapes.
func rawRune(s string) (int, bool) {
	c, size := utf8.DecodeRuneInString(s)
	if c == utf8.RuneError && size == 1 || c == '\u2028' || c == '\u2029' {
		return 0, false
	}
	return size, true
}

// Strs reads null (a nil slice) or an array of strings (a non-nil
// slice, empty for []), as json.Unmarshal fills a []string.
func (r *Reader) Strs() []string {
	if r.Accept("null") {
		return nil
	}
	r.Expect("[")
	if r.err != nil {
		return nil
	}
	// Collect on the stack, then copy into one exactly sized slice.
	var stack [32]string
	list := stack[:0]
	for first := true; r.More(']', first); first = false {
		list = append(list, r.Str())
	}
	if r.err != nil {
		return nil
	}
	return append(make([]string, 0, len(list)), list...)
}

// Key reads an object key and the ':' after it. json.Marshal writes a
// map's keys in strictly ascending order, so unless first is set the
// key must sort after prev, the key read before it. The one exception
// is a key holding U+FFFD: it may stand for invalid UTF-8, which
// json.Marshal sorted before replacing it, so it is not ordered
// against its neighbours, and a repeat overwrites the earlier value as
// it does under json.Unmarshal.
func (r *Reader) Key(prev string, first bool) string {
	k := r.Str()
	if !first && k <= prev && !strings.ContainsRune(k, utf8.RuneError) && !strings.ContainsRune(prev, utf8.RuneError) {
		r.fail("map keys out of order")
	}
	r.Expect(":")
	return k
}

// FloatMap reads null (a nil map) or an object of floats (a non-nil
// map, empty for {}), as json.Unmarshal fills a map[string]float64.
func (r *Reader) FloatMap() map[string]float64 {
	if r.Accept("null") {
		return nil
	}
	r.Expect("{")
	if r.err != nil {
		return nil
	}
	m := make(map[string]float64)
	var k string
	for first := true; r.More('}', first); first = false {
		k = r.Key(k, first)
		m[k] = r.Float()
	}
	if r.err != nil {
		return nil
	}
	return m
}

// unescape decodes s, the raw bytes of a string scanStr accepted that
// holds at least one escape, into the escape buffer; n is its decoded
// length.
func (r *Reader) unescape(s string, n int) string {
	// The builder only appends, so strings sliced from it earlier stay
	// intact when it regrows.
	b := &r.esc
	b.Grow(n)
	mark := b.Len()
	for {
		k := strings.IndexByte(s, '\\')
		if k < 0 {
			break
		}
		b.WriteString(s[:k])
		v, w := escape(s[k:])
		if v < utf8.RuneSelf {
			b.WriteByte(byte(v))
		} else {
			b.WriteRune(v)
		}
		s = s[k+w:]
	}
	b.WriteString(s)
	return b.String()[mark:]
}

// escape returns the character the escape at the start of s stands
// for and the escape's width, or width 0 for any escape AppendString
// does not write.
func escape(s string) (rune, int) {
	if len(s) < 2 {
		return 0, 0
	}
	switch s[1] {
	case '"', '\\':
		return rune(s[1]), 2
	case 'b':
		return '\b', 2
	case 'f':
		return '\f', 2
	case 'n':
		return '\n', 2
	case 'r':
		return '\r', 2
	case 't':
		return '\t', 2
	case 'u':
	default:
		return 0, 0
	}
	if len(s) < 6 {
		return 0, 0
	}
	switch u := s[2:6]; u {
	case "fffd":
		return utf8.RuneError, 6
	case "2028":
		return '\u2028', 6
	case "2029":
		return '\u2029', 6
	}
	if s[2] != '0' || s[3] != '0' {
		return 0, 0
	}
	hi, lo := strings.IndexByte(hex, s[4]), strings.IndexByte(hex, s[5])
	if hi < 0 || lo < 0 {
		return 0, 0
	}
	c := byte(hi<<4 | lo)
	switch {
	case c == '<', c == '>', c == '&':
	case c < 0x20 && strings.IndexByte("\b\f\n\r\t", c) < 0:
	default:
		return 0, 0 // the encoder writes c raw or as a short escape
	}
	return rune(c), 6
}
