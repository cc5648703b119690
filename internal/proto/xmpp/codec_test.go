package xmpp

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// stdDecode is the reference decoder: encoding/xml's, reading the first
// start element as the stanza.
func stdDecode(data []byte) (any, error) {
	dec := xml.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		start, ok := tok.(xml.StartElement)
		if !ok {
			continue
		}
		var st any
		switch start.Name.Local {
		case KindMessage:
			st = &Message{}
		case KindPresence:
			st = &Presence{}
		case KindIQ:
			st = &IQ{}
		default:
			return nil, fmt.Errorf("%w: <%s>", ErrUnknownStanza, start.Name.Local)
		}
		if err := dec.DecodeElement(st, &start); err != nil {
			return nil, err
		}
		return st, nil
	}
}

// fuzzStanzas builds one stanza of each shape from fuzz inputs. shape's
// bits choose which of the IQ's three payloads are present, and whether
// each stanza is passed by value or by pointer.
func fuzzStanzas(from, to, typ, id, text string, shape uint8) []any {
	m := Message{From: from, To: to, Type: typ, ID: id, Body: text}
	p := Presence{From: to, To: from, Type: id, Status: text}
	iq := IQ{From: from, To: to, Type: typ, ID: id}
	if shape&1 != 0 {
		iq.Bind = &Bind{Resource: text, JID: from}
	}
	if shape&2 != 0 {
		iq.Session = &Session{}
	}
	if shape&4 != 0 {
		iq.Error = &Error{Type: id, Text: text}
	}
	if shape&8 != 0 {
		return []any{m, p, iq}
	}
	return []any{&m, &p, &iq}
}

// checkStanzaCodec compares the codec with encoding/xml both ways: Encode
// must write xml.Marshal's bytes, and Decode of those bytes must give
// encoding/xml's value.
func checkStanzaCodec(t *testing.T, st any) {
	t.Helper()
	want, err := xml.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Encode(st)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("Encode(%#v) = %q, %v\nxml.Marshal  = %q", st, got, err, want)
	}
	wantSt, err := stdDecode(want)
	if err != nil {
		t.Fatalf("encoding/xml rejects %q: %v", want, err)
	}
	gotSt, err := Decode(want)
	if err != nil {
		t.Fatalf("Decode(%q): %v", want, err)
	}
	if !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatalf("Decode(%q):\n got %#v\nwant %#v", want, gotSt, wantSt)
	}
}

// FuzzStanzaCodec is the differential fuzzer for the hand-written codec,
// with encoding/xml as the oracle in both directions.
func FuzzStanzaCodec(f *testing.F) {
	f.Add("alice@diy.chat/phone", "room@diy.chat", "groupchat", "alice-1", "hello <world> & friends", uint8(0))
	f.Add("", "", "", "", "", uint8(0xff))
	f.Add("a\"b'c", "<>&", "\t\n\r", "x\x00\x1f\x7fy", `</message><message from="evil@x">`, uint8(3))
	f.Add("bad\xffutf8", "\xc3\x28", "\xed\xa0\x80", "\xef\xbf\xbe\xef\xbf\xbf", "replacement \xef\xbf\xbd stays", uint8(5))
	f.Add("日本語@例え.jp/端末", "ü", "emoji \U0001F600", "&amp;", "&#34;&#x9;&lt;", uint8(6))
	for shape := 0; shape < 16; shape++ {
		f.Add("alice@diy.chat/phone", "room@diy.chat", "groupchat", "alice-7", "it's \"quoted\" <b>&</b>\n", uint8(shape))
		f.Add("", "", "", "", "", uint8(shape))
	}
	f.Fuzz(func(t *testing.T, from, to, typ, id, text string, shape uint8) {
		for _, st := range fuzzStanzas(from, to, typ, id, text, shape) {
			checkStanzaCodec(t, st)
		}
	})
}

// TestEncodeNilPointer: xml.Marshal writes nothing for a nil pointer.
func TestEncodeNilPointer(t *testing.T) {
	for _, st := range []any{(*Message)(nil), (*Presence)(nil), (*IQ)(nil)} {
		if got, err := Encode(st); err != nil || len(got) != 0 {
			t.Errorf("Encode(%#v) = %q, %v", st, got, err)
		}
	}
}

// TestEscapeEveryByteAtEveryOffset puts each byte value at each offset
// of two eight-byte words, so plainLen's word-at-a-time test sees it in
// every lane, and compares the escaping with encoding/xml's.
func TestEscapeEveryByteAtEveryOffset(t *testing.T) {
	for c := 0; c < 256; c++ {
		for at := 0; at < 16; at++ {
			b := []byte(strings.Repeat("a", 16))
			b[at] = byte(c)
			var want bytes.Buffer
			if err := xml.EscapeText(&want, b); err != nil {
				t.Fatal(err)
			}
			if got := appendEscaped(nil, string(b)); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("appendEscaped(%q) = %q, want %q", b, got, want.Bytes())
			}
			if n := escapedLen(string(b)); n != want.Len() {
				t.Fatalf("escapedLen(%q) = %d, want %d", b, n, want.Len())
			}
		}
	}
}

func TestDecodeRejectsNonCanonical(t *testing.T) {
	canonical := `<message from="alice@diy.chat/phone" to="room@diy.chat" type="groupchat" id="alice-1"><body>it&#39;s &lt;ok&gt;</body></message>`
	if _, err := Decode([]byte(canonical)); err != nil {
		t.Fatalf("canonical stanza rejected: %v", err)
	}
	for _, bad := range []string{
		`<message from='alice@diy.chat'></message>`,
		`<message to="room@diy.chat" from="alice@diy.chat"></message>`,
		`<presence/>`,
		`<presence></presence/>`,
		`<?xml version="1.0" encoding="UTF-8"?><message></message>`,
		` <message></message>`,
		`<message></message>` + "\n",
		"<message>\n</message>",
		`<message ></message>`,
		`<message  from="a"></message>`,
		`<message from=""></message>`,
		`<message><body></body></message>`,
		`<message><body>x</body><body>y</body></message>`,
		`<message xmlns="jabber:client"></message>`,
		`<message><!-- note --></message>`,
		`<message><body><![CDATA[x]]></body></message>`,
		`<message><body>&quot;</body></message>`,
		`<message><body>&#x22;</body></message>`,
		`<message><body>&#xa;</body></message>`,
		`<message><body>it's</body></message>`,
		`<message><body>a>b</body></message>`,
		`<message><body>a"b</body></message>`,
		"<message><body>a\tb</body></message>",
		"<message><body>bad\xffutf8</body></message>",
		"<message><body>\xef\xbf\xbe</body></message>",
		`<message from="a<b"></message>`,
		`<message><body>x</body>`,
		`<iq type="set"></iq>`,
		`<iq id="1" type="set"></iq>`,
		`<iq type="set" id="1"><session/></iq>`,
		`<iq type="set" id="1"><session></session><bind></bind></iq>`,
		`<iq type="set" id="1"><error type=""></error></iq>`,
	} {
		if st, err := Decode([]byte(bad)); err == nil {
			t.Errorf("Decode(%q) = %#v, want an error", bad, st)
		} else if !errors.Is(err, errNotCanonical) {
			t.Errorf("Decode(%q) error %v, want a non-canonical error", bad, err)
		}
	}
}

// TestDecodeExampleStanza decodes the stanza examples/groupchat POSTs
// over a real socket, so the example keeps working.
func TestDecodeExampleStanza(t *testing.T) {
	raw := `<message from="member00@diy.chat/curl" to="room@diy.chat" type="groupchat" id="tcp-1"><body>hello over real TCP</body></message>`
	st, err := Decode([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := Message{From: "member00@diy.chat/curl", To: "room@diy.chat", Type: "groupchat", ID: "tcp-1", Body: "hello over real TCP"}
	if m, ok := st.(*Message); !ok || *m != want {
		t.Fatalf("Decode = %#v, want %#v", st, want)
	}
}

// TestStanzaCodecAllocs pins the codec's allocations: one buffer per
// Encode, and per Decode one copy of the input, the stanza, and one
// string per field that holds a reference — for a groupchat message,
// within its five fields + 1.
func TestStanzaCodecAllocs(t *testing.T) {
	m := &Message{From: "alice@diy.chat/phone", To: "room@diy.chat", Type: "groupchat", ID: "alice-42", Body: strings.Repeat("lunch at noon? ", 12)}
	escaped := &Message{From: m.From, To: m.To, Type: m.Type, ID: m.ID, Body: `it's "fish" & <chips>`}
	for _, tc := range []struct {
		m         *Message
		decAllocs float64
	}{{m, 2}, {escaped, 3}} {
		enc := testing.AllocsPerRun(100, func() {
			if _, err := Encode(tc.m); err != nil {
				t.Fatal(err)
			}
		})
		if enc != 1 {
			t.Errorf("Encode(%q): %v allocs, want exactly 1", tc.m.Body, enc)
		}
		raw, _ := Encode(tc.m)
		dec := testing.AllocsPerRun(100, func() {
			if _, err := Decode(raw); err != nil {
				t.Fatal(err)
			}
		})
		if dec != tc.decAllocs {
			t.Errorf("Decode(%q): %v allocs, want exactly %v", raw, dec, tc.decAllocs)
		}
	}
}

var (
	sinkBytes  []byte
	sinkStanza any
)

// BenchmarkStanzaCodec sets the hand-written codec beside encoding/xml
// on a ~200-byte groupchat message, the stanza a fleet chat request
// encodes and decodes twice each.
func BenchmarkStanzaCodec(b *testing.B) {
	m := &Message{From: "alice@diy.chat/phone", To: "room@diy.chat", Type: "groupchat", ID: "alice-42", Body: strings.Repeat("lunch at noon? ", 9)}
	raw, _ := Encode(m)
	b.Run("encode/hand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBytes, _ = Encode(m)
		}
	})
	b.Run("encode/encoding_xml", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBytes, _ = xml.Marshal(m)
		}
	})
	b.Run("decode/hand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkStanza, _ = Decode(raw)
		}
	})
	b.Run("decode/encoding_xml", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkStanza, _ = stdDecode(raw)
		}
	})
}
