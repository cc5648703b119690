package xmpp

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseJID(t *testing.T) {
	tests := []struct {
		in   string
		want JID
		ok   bool
	}{
		{"alice@example.com", JID{Local: "alice", Domain: "example.com"}, true},
		{"alice@example.com/phone", JID{Local: "alice", Domain: "example.com", Resource: "phone"}, true},
		{"example.com", JID{Domain: "example.com"}, true},
		{"example.com/res", JID{Domain: "example.com", Resource: "res"}, true},
		{"", JID{}, false},
		{"@example.com", JID{}, false},
		{"alice@", JID{}, false},
		{"alice@example.com/", JID{}, false},
		{"a@b@c", JID{}, false},
	}
	for _, tt := range tests {
		got, err := ParseJID(tt.in)
		if tt.ok != (err == nil) {
			t.Errorf("ParseJID(%q) error = %v, want ok=%v", tt.in, err, tt.ok)
			continue
		}
		if tt.ok && got != tt.want {
			t.Errorf("ParseJID(%q) = %+v, want %+v", tt.in, got, tt.want)
		}
		if !tt.ok && !errors.Is(err, ErrBadJID) {
			t.Errorf("ParseJID(%q) error %v not ErrBadJID", tt.in, err)
		}
	}
}

func TestJIDStringRoundTrip(t *testing.T) {
	for _, s := range []string{"alice@example.com", "alice@example.com/phone", "example.com"} {
		j, err := ParseJID(s)
		if err != nil {
			t.Fatal(err)
		}
		if j.String() != s {
			t.Errorf("round trip %q -> %q", s, j.String())
		}
	}
}

func TestJIDBare(t *testing.T) {
	j, _ := ParseJID("alice@example.com/phone")
	if got := j.Bare().String(); got != "alice@example.com" {
		t.Fatalf("Bare() = %q", got)
	}
	if j.IsZero() || (JID{}).IsZero() != true {
		t.Fatal("IsZero misbehaves")
	}
}

func TestJIDRoundTripProperty(t *testing.T) {
	// Property: any JID built from clean parts parses back to itself.
	clean := func(s string) string {
		s = strings.Map(func(r rune) rune {
			if r == '@' || r == '/' || r < ' ' {
				return -1
			}
			return r
		}, s)
		if s == "" {
			return "x"
		}
		return s
	}
	f := func(local, domain, res string) bool {
		j := JID{Local: clean(local), Domain: clean(domain), Resource: clean(res)}
		got, err := ParseJID(j.String())
		return err == nil && got == j
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeMessage(t *testing.T) {
	m := &Message{
		From: "alice@diy.chat/phone",
		To:   "room@diy.chat",
		Type: "groupchat",
		ID:   "msg-1",
		Body: "hello <world> & friends",
	}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	gm, ok := got.(*Message)
	if !ok {
		t.Fatalf("decoded %T", got)
	}
	if *gm != *m {
		t.Fatalf("round trip: %+v != %+v", gm, m)
	}
}

func TestEncodeDecodePresence(t *testing.T) {
	p := &Presence{From: "alice@diy.chat", Type: "unavailable", Status: "gone"}
	data, err := Encode(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	gp := got.(*Presence)
	if gp.From != p.From || gp.Type != p.Type || gp.Status != p.Status {
		t.Fatalf("round trip: %+v", gp)
	}
}

func TestEncodeDecodeIQSession(t *testing.T) {
	// Session initiation, the prototype's first exchange.
	iq := &IQ{Type: "set", ID: "sess-1", Session: &Session{}}
	data, err := Encode(iq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	gi := got.(*IQ)
	if gi.Type != "set" || gi.ID != "sess-1" || gi.Session == nil {
		t.Fatalf("round trip: %+v", gi)
	}
}

func TestEncodeDecodeIQBind(t *testing.T) {
	iq := &IQ{Type: "result", ID: "bind-1", Bind: &Bind{JID: "alice@diy.chat/phone"}}
	data, _ := Encode(iq)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	gi := got.(*IQ)
	if gi.Bind == nil || gi.Bind.JID != "alice@diy.chat/phone" {
		t.Fatalf("bind lost: %+v", gi)
	}
}

func TestDecodeIQError(t *testing.T) {
	iq := &IQ{Type: "error", ID: "x", Error: &Error{Type: "auth", Text: "not a member"}}
	data, _ := Encode(iq)
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	gi := got.(*IQ)
	if gi.Error == nil || gi.Error.Text != "not a member" {
		t.Fatalf("error payload lost: %+v", gi)
	}
}

func TestDecodeUnknownStanza(t *testing.T) {
	if _, err := Decode([]byte("<weird/>")); !errors.Is(err, ErrUnknownStanza) {
		t.Fatalf("got %v, want ErrUnknownStanza", err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, in := range []string{"", "not xml", "<message", "<>"} {
		if _, err := Decode([]byte(in)); err == nil {
			t.Errorf("Decode(%q) succeeded", in)
		}
	}
}

func TestEncodeUnknownType(t *testing.T) {
	if _, err := Encode(42); !errors.Is(err, ErrUnknownStanza) {
		t.Fatalf("got %v, want ErrUnknownStanza", err)
	}
}

func TestMessageBodyEscaping(t *testing.T) {
	// XML metacharacters in the body must survive the round trip and
	// must not appear raw in the encoding (injection resistance).
	m := &Message{Body: `</message><message from="evil@x">pwned`}
	data, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `<message from="evil@x">`) {
		t.Fatal("stanza injection not escaped")
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*Message).Body != m.Body {
		t.Fatal("escaped body did not round trip")
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	f := func(body, id string) bool {
		// XML cannot carry arbitrary control bytes or the noncharacters
		// U+FFFE and U+FFFF (outside XML 1.0's Char production; the
		// encoder escapes them to U+FFFD); restrict to valid printable
		// input as real chat clients do.
		clean := func(s string) string {
			return strings.Map(func(r rune) rune {
				if r < ' ' || (r >= 0xFFFD && r <= 0xFFFF) {
					return -1
				}
				return r
			}, s)
		}
		m := &Message{Body: clean(body), ID: clean(id), Type: "chat"}
		data, err := Encode(m)
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		gm := got.(*Message)
		return gm.Body == m.Body && gm.ID == m.ID
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
