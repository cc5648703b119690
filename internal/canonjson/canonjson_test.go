package canonjson

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// checkString compares AppendString with json.Marshal on s, and
// Reader.Str on those bytes with json.Unmarshal.
func checkString(t *testing.T, s string) {
	t.Helper()
	want, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	got := AppendString([]byte("prefix"), s)
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("AppendString(%q) = %q, json.Marshal = %q", s, got[len("prefix"):], want)
	}
	var wantS string
	if err := json.Unmarshal(want, &wantS); err != nil {
		t.Fatal(err)
	}
	r := NewReader(want)
	gotS := r.Str()
	if err := r.Done(); err != nil {
		t.Fatalf("Reader.Str(%q): %v", want, err)
	}
	if gotS != wantS {
		t.Fatalf("Reader.Str(%q) = %q, json.Unmarshal = %q", want, gotS, wantS)
	}
	r = NewReader(want)
	if n := r.StrLen(); r.Done() != nil || n != len(wantS) {
		t.Fatalf("Reader.StrLen(%q) = %d, %v; want %d", want, n, r.Err(), len(wantS))
	}
	r = NewReader(want)
	if enc, again := r.StrEncoded(), AppendString(nil, wantS); r.Done() != nil || !bytes.Equal(enc, again) {
		t.Fatalf("Reader.StrEncoded(%q) = %q, %v; want %q", want, enc, r.Err(), again)
	}
}

func FuzzAppendString(f *testing.F) {
	for _, s := range []string{
		"", "plain ascii", `"quoted" \back\slash/`, "<script>&amp;</script>",
		"\b\f\n\r\t\x00\x01\x1f\x7f", "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x98\x80",
		"\xff\xfe bad \xc3\x28 \xed\xa0\x80 \xf4\x90\x80\x80 trunc \xe2\x82",
		"\xe2\x80\xa8 line sep, \xe2\x80\xa9 para sep, \xe2\x80\xa7 not one",
		"\xef\xbf\xbd already a replacement char",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkString(t, string(b))
	})
}

func TestStringsNullVersusEmpty(t *testing.T) {
	for _, list := range [][]string{nil, {}, {"a"}, {"a", "<b>", ""}} {
		want, _ := json.Marshal(list)
		if got := AppendStrings(nil, list); !bytes.Equal(got, want) {
			t.Fatalf("AppendStrings(%#v) = %q, want %q", list, got, want)
		}
		r := NewReader(want)
		got := r.Strs()
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
		if (got == nil) != (list == nil) || strings.Join(got, "|") != strings.Join(list, "|") {
			t.Fatalf("Strs(%q) = %#v, want %#v", want, got, list)
		}
	}
}

func TestAppendFloatMatchesStdlib(t *testing.T) {
	below := func(f float64) float64 { return math.Nextafter(f, 0) }
	for _, f := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 123456.789, 1e20, 1e-5,
		1e-6, below(1e-6), -1e-6, -below(1e-6), 1e-7, 1.5e-7, 1e-300,
		1e21, below(1e21), -1e21, 1.5e21, 1e100,
		5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	} {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendFloat(nil, f)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("AppendFloat(%v) = %q, %v; json.Marshal = %q", f, got, err, want)
		}
		r := NewReader(want)
		if back := r.Float(); r.Done() != nil || math.Float64bits(back) != math.Float64bits(f) {
			t.Fatalf("Float(%q) = %v, %v; want %v", want, back, r.Err(), f)
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := json.Marshal(f); err == nil {
			t.Fatalf("json.Marshal(%v) succeeded", f)
		}
		if _, err := AppendFloat(nil, f); err == nil {
			t.Fatalf("AppendFloat(%v) succeeded", f)
		}
	}
}

func TestAppendTimeMatchesStdlib(t *testing.T) {
	for _, tm := range []time.Time{
		{},
		time.Date(2017, 6, 5, 10, 0, 0, 0, time.UTC),
		time.Date(2017, 6, 5, 10, 0, 0, 123456789, time.FixedZone("", -7*3600)),
		time.Date(2017, 6, 5, 10, 0, 0, 120000000, time.FixedZone("IST", 5*3600+30*60)),
		time.Date(1, 1, 1, 0, 0, 0, 1, time.FixedZone("", -59*60)),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.FixedZone("", 23*3600+59*60)),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2017, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2017, 1, 1, 0, 0, 0, 0, time.FixedZone("", -25*3600)),
	} {
		want, wantErr := json.Marshal(tm)
		got, err := AppendTime(nil, tm)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("AppendTime(%v) error %v, json.Marshal error %v", tm, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendTime(%v) = %q, json.Marshal = %q", tm, got, want)
		}
		var wantT time.Time
		if err := json.Unmarshal(want, &wantT); err != nil {
			t.Fatal(err)
		}
		r := NewReader(want)
		if back := r.Time(); r.Done() != nil || !back.Equal(wantT) || back.Location().String() != wantT.Location().String() {
			t.Fatalf("Time(%q) = %v, %v; json.Unmarshal = %v", want, back, r.Err(), wantT)
		}
	}
}

func TestIntRoundTrip(t *testing.T) {
	for _, v := range []int{0, 1, -1, 9, 10, -10, 123456789, math.MaxInt, math.MinInt} {
		b := AppendInt(nil, v)
		r := NewReader(b)
		if got := r.Int(); r.Done() != nil || got != v {
			t.Fatalf("Int(%q) = %d, %v", b, got, r.Err())
		}
	}
}

// The Reader accepts only what the appenders write.
func TestReaderRejectsNonCanonical(t *testing.T) {
	// In these inputs '~' stands for a backslash.
	for name, c := range map[string]struct {
		in   string
		read func(*Reader)
	}{
		"int leading zero":   {"01", func(r *Reader) { r.Int() }},
		"int minus zero":     {"-0", func(r *Reader) { r.Int() }},
		"int plus sign":      {"+1", func(r *Reader) { r.Int() }},
		"int overflow":       {"9223372036854775808", func(r *Reader) { r.Int() }},
		"int underflow":      {"-9223372036854775809", func(r *Reader) { r.Int() }},
		"int empty":          {"", func(r *Reader) { r.Int() }},
		"float trailing 0":   {"1.50", func(r *Reader) { r.Float() }},
		"float long exp":     {"1e-07", func(r *Reader) { r.Float() }},
		"float 'f' too big":  {"1000000000000000000000", func(r *Reader) { r.Float() }},
		"float capital E":    {"1E+21", func(r *Reader) { r.Float() }},
		"float inf":          {"Inf", func(r *Reader) { r.Float() }},
		"bool":               {"True", func(r *Reader) { r.Bool() }},
		"raw <":              {`"<"`, func(r *Reader) { r.Str() }},
		"raw &":              {`"&"`, func(r *Reader) { r.Str() }},
		"raw control":        {"\"\x01\"", func(r *Reader) { r.Str() }},
		"raw newline":        {"\"\n\"", func(r *Reader) { r.Str() }},
		"raw invalid UTF-8":  {"\"\xff\"", func(r *Reader) { r.Str() }},
		"raw U+2028":         {"\"\xe2\x80\xa8\"", func(r *Reader) { r.Str() }},
		"escaped slash":      {`"~/"`, func(r *Reader) { r.Str() }},
		"uppercase hex":      {`"~u003C"`, func(r *Reader) { r.Str() }},
		"long form of ~n":    {`"~u000a"`, func(r *Reader) { r.Str() }},
		"escaped letter":     {`"~u0041"`, func(r *Reader) { r.Str() }},
		"surrogate escape":   {`"~ud83d~ude00"`, func(r *Reader) { r.Str() }},
		"escape, raw U+2029": {"\"~n\xe2\x80\xa9\"", func(r *Reader) { r.Str() }},
		"escape, raw <":      {`"~n<"`, func(r *Reader) { r.Str() }},
		"unterminated":       {`"abc`, func(r *Reader) { r.Str() }},
		"unterminated esc":   {`"abc~"`, func(r *Reader) { r.Str() }},
		"time escaped":       {`"2017-06-05T10:00:00~u002b07:00"`, func(r *Reader) { r.Time() }},
		"time no zone":       {`"2017-06-05T10:00:00"`, func(r *Reader) { r.Time() }},
		"time fraction 000":  {`"2020-01-01T00:00:00.000Z"`, func(r *Reader) { r.Time() }},
		"time fraction 5000": {`"2020-01-01T00:00:00.5000Z"`, func(r *Reader) { r.Time() }},
		"time +00:00 for Z":  {`"2020-01-01T00:00:00+00:00"`, func(r *Reader) { r.Time() }},
		"time lowercase t":   {`"2020-01-01t00:00:00Z"`, func(r *Reader) { r.Time() }},
		"bytes bad padding":  {`"AQ"`, func(r *Reader) { r.Bytes() }},
		"bytes extra pad":    {`"AQ==="`, func(r *Reader) { r.Bytes() }},
		"bytes pad bits":     {`"AR=="`, func(r *Reader) { r.Bytes() }},
		"bytes URL alphabet": {`"-_8="`, func(r *Reader) { r.Bytes() }},
		"bytes escaped /":    {`"~/w=="`, func(r *Reader) { r.Bytes() }},
		"bytes newline":      {"\"AQ~n==\"", func(r *Reader) { r.Bytes() }},
		"bytes raw CR":       {"\"AQ\r==\"", func(r *Reader) { r.Bytes() }},
		"bytes raw LF":       {"\"AQID\nBA==\"", func(r *Reader) { r.Bytes() }},
		"bytes unterminated": {`"AQID`, func(r *Reader) { r.Bytes() }},
		"bytes array":        {`[1,2]`, func(r *Reader) { r.Bytes() }},
		"map keys unsorted":  {`{"b":1,"a":2}`, func(r *Reader) { r.FloatMap() }},
		"map keys repeated":  {`{"a":1,"a":2}`, func(r *Reader) { r.FloatMap() }},
		"map spaced":         {`{"a": 1}`, func(r *Reader) { r.FloatMap() }},
		"map trailing ,":     {`{"a":1,}`, func(r *Reader) { r.FloatMap() }},
		"map float 1.0":      {`{"a":1.0}`, func(r *Reader) { r.FloatMap() }},
		"map int key":        {`{1:1}`, func(r *Reader) { r.FloatMap() }},
		"strings spaced":     {`["a", "b"]`, func(r *Reader) { r.Strs() }},
		"strings trailing ,": {`["a",]`, func(r *Reader) { r.Strs() }},
		"trailing bytes":     {`"a" `, func(r *Reader) { r.Str() }},
	} {
		r := NewReader([]byte(strings.ReplaceAll(c.in, "~", "\\")))
		c.read(r)
		if err := r.Done(); err == nil {
			t.Errorf("%s: %q accepted", name, c.in)
		}
	}
}

// StrLen and StrEncoded must accept exactly the strings Str accepts,
// stop where Str stops, and measure and encode what Str returns.
func TestStrLenAgreesWithStr(t *testing.T) {
	// In these inputs '~' stands for a backslash.
	for _, in := range []string{
		`""`, `"a"`, `"~n"`, `"~u003c~u0026~u003e"`, `"~ufffd~u2028~u2029"`, `"~"~~~/"`,
		"\"caf\xc3\xa9 \xf0\x9f\x98\x80 ~t\"", `"a"x`, `"a","b"`,
		`"<"`, `"&"`, "\"\x01\"", "\"\xff\"", "\"\xe2\x80\xa8\"", `"~/"`, `"~u003C"`,
		`"~u000a"`, `"~u0041"`, `"~ud83d~ude00"`, "\"~n\xe2\x80\xa9\"", `"~n<"`, `"abc`,
		`"abc~"`, `"~u00"`, `"~u2"`, `abc`, ``,
	} {
		in = strings.ReplaceAll(in, "~", "\\")
		r := NewReader([]byte(in))
		s := r.Str()
		rn := NewReader([]byte(in))
		n := rn.StrLen()
		re := NewReader([]byte(in))
		enc := re.StrEncoded()
		if (r.Err() == nil) != (rn.Err() == nil) || (r.Err() == nil) != (re.Err() == nil) {
			t.Errorf("%q: Str error %v, StrLen error %v, StrEncoded error %v", in, r.Err(), rn.Err(), re.Err())
			continue
		}
		if r.Err() == nil && (n != len(s) || r.Rest() != rn.Rest()) {
			t.Errorf("%q: StrLen = %d leaving %q, Str = %q leaving %q", in, n, rn.Rest(), s, r.Rest())
		}
		if r.Err() == nil && (!bytes.Equal(enc, AppendString(nil, s)) || r.Rest() != re.Rest()) {
			t.Errorf("%q: StrEncoded = %q leaving %q, Str = %q leaving %q", in, enc, re.Rest(), s, r.Rest())
		}
	}
}

// A kept array must accept exactly what the decoder accepts, count its
// elements, and copy out, whole or open for one more element, as the
// re-encoding of what it decodes to: \ufffd escapes come out raw.
func TestKeepMatchesStrs(t *testing.T) {
	bad := "\xff"
	for _, in := range []string{
		`null`, `[]`, `["a"]`, `["a","\u003cb\u003e"]`, `["\ufffd",""]`, `["x\u2028\ufffd\\ufffd"]`,
		string(AppendStrings(nil, []string{bad, "ok", "a" + bad + "b"})),
		`nul`, `[`, `["a",]`, `["a"] `, `[1]`, `["<"]`, `["\u003C"]`, "[\"" + bad + "\"]",
	} {
		r := NewReader([]byte(in))
		want := r.Strs()
		wantErr := r.Done()
		r = NewReader([]byte(in))
		k := r.Keep(func() { r.StrLen() })
		if err := r.Done(); (err == nil) != (wantErr == nil) {
			t.Errorf("%q: Keep error %v, Strs error %v", in, err, wantErr)
			continue
		}
		if wantErr != nil {
			continue
		}
		if k.n != len(want) || (k.Bytes() == nil) != (want == nil) || want != nil && string(k.Bytes()) != in {
			t.Errorf("%q: kept %d elements %q, decoded %d", in, k.n, k.Bytes(), len(want))
		}
		if got, again := k.Append(nil), AppendStrings(nil, want); !bytes.Equal(got, again) {
			t.Errorf("%q: Append = %q, want %q", in, got, again)
		}
		got := append(AppendString(k.AppendOpen(nil), "new"), ']')
		if again := AppendStrings(nil, append(want, "new")); !bytes.Equal(got, again) {
			t.Errorf("%q: AppendOpen + element = %q, want %q", in, got, again)
		}
	}
}

// Strings decoded from escapes share the Reader's buffer; regrowing it
// must leave the earlier ones intact.
func TestEscapedStringsSurviveBufferGrowth(t *testing.T) {
	var list []string
	for i := 0; i < 200; i++ {
		list = append(list, strings.Repeat("<&>", i))
	}
	enc := AppendStrings(nil, list)
	r := NewReader(enc)
	got := r.Strs()
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	for i := range list {
		if got[i] != list[i] {
			t.Fatalf("string %d = %q, want %q", i, got[i], list[i])
		}
	}
}

// plainLen must agree with the per-byte table: a prefix that runs too
// far would copy a byte that needs escaping. Every byte value is tried
// at every position of a word, and every pair of values in adjacent
// positions, since the word tests' borrows run between neighbours.
func TestPlainLenMatchesTable(t *testing.T) {
	want := func(s []byte) int {
		for i, c := range s {
			if c >= 0x80 || !safe[c] {
				return i
			}
		}
		return len(s)
	}
	check := func(s []byte) {
		if got := plainLen(string(s)); got != want(s) {
			t.Fatalf("plainLen(%q) = %d, want %d", s, got, want(s))
		}
	}
	const base = "abcdefghijklmnopq"
	s := []byte(base)
	for pos := 0; pos < len(base); pos++ {
		for c := 0; c < 256; c++ {
			copy(s, base)
			s[pos] = byte(c)
			check(s)
		}
	}
	for pos := 0; pos < 8; pos++ {
		for c := 0; c < 256; c++ {
			for d := 0; d < 256; d++ {
				copy(s, base)
				s[pos], s[pos+1] = byte(c), byte(d)
				check(s)
			}
		}
	}
}

// Bytes, FloatMap and AppendFloatMap against encoding/json: the
// appender writes json.Marshal's bytes, and every value json.Marshal
// writes reads back as json.Unmarshal's, nil versus empty included.
func TestBytesAndFloatMapMatchStdlib(t *testing.T) {
	for _, b := range [][]byte{nil, {}, {0}, {1, 2}, {1, 2, 3}, []byte("<&>"), bytes.Repeat([]byte{0xfb, 0xff}, 100)} {
		enc, _ := json.Marshal(b)
		var want []byte
		if err := json.Unmarshal(enc, &want); err != nil {
			t.Fatal(err)
		}
		r := NewReader(enc)
		got := r.Bytes()
		if err := r.Done(); err != nil || (got == nil) != (want == nil) || !bytes.Equal(got, want) {
			t.Fatalf("Bytes(%q) = %#v, %v; json.Unmarshal = %#v", enc, got, err, want)
		}
	}
	for _, m := range []map[string]float64{
		nil, {}, {"a": 1}, {"temperature_c": 45.5, "humidity": -0.25, "<b>": 1e21, "": 5e-324, "z\u00e9": 0},
	} {
		enc, _ := json.Marshal(m)
		got, err := AppendFloatMap([]byte("prefix"), m)
		if err != nil || !bytes.Equal(got[len("prefix"):], enc) {
			t.Fatalf("AppendFloatMap(%v) = %q, %v; json.Marshal = %q", m, got, err, enc)
		}
		if n := FloatMapLen(m); len(enc) > n {
			t.Fatalf("FloatMapLen(%v) = %d, encoding is %d bytes", m, n, len(enc))
		}
		var want map[string]float64
		if err := json.Unmarshal(enc, &want); err != nil {
			t.Fatal(err)
		}
		r := NewReader(enc)
		back := r.FloatMap()
		if err := r.Done(); err != nil || (back == nil) != (want == nil) || !reflect.DeepEqual(back, want) {
			t.Fatalf("FloatMap(%q) = %v, %v; json.Unmarshal = %v", enc, back, err, want)
		}
	}
	if _, err := AppendFloatMap(nil, map[string]float64{"nan": math.NaN()}); err == nil {
		t.Fatal("AppendFloatMap accepted NaN")
	}
}
