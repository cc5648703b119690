package xmpp

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecode checks the stanza decoder never panics, that anything it
// accepts re-encodes to exactly the input (it accepts only canonical
// bytes), and that encoding/xml decodes the input to an equal value.
func FuzzDecode(f *testing.F) {
	f.Add([]byte(`<message from="a@b" type="chat"><body>hi</body></message>`))
	f.Add([]byte(`<presence type="unavailable"></presence>`))
	f.Add([]byte(`<iq type="set" id="1"><session></session></iq>`))
	f.Add([]byte(`<message><body>&lt;tricky&gt;</body></message>`))
	f.Add([]byte(``))
	f.Add([]byte(`<message`))
	f.Add([]byte(`<weird attr="<">`))
	f.Add([]byte(`<iq from="a@b/c" to="b" type="error" id=""><bind><resource>r</resource><jid>j</jid></bind><error type="auth"><text>no &amp; no</text></error></iq>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			return
		}
		again, err := Encode(st)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("Decode accepted %q, which re-encodes to %q (%v)", data, again, err)
		}
		want, err := stdDecode(data)
		if err != nil {
			t.Fatalf("Decode accepted %q, which encoding/xml rejects: %v", data, err)
		}
		if !reflect.DeepEqual(st, want) {
			t.Fatalf("Decode(%q):\n got %#v\nwant %#v", data, st, want)
		}
	})
}

// FuzzParseJID checks the JID parser never panics and that accepted
// JIDs round-trip through String.
func FuzzParseJID(f *testing.F) {
	f.Add("alice@example.com/phone")
	f.Add("example.com")
	f.Add("@@//")
	f.Add("")
	f.Fuzz(func(t *testing.T, s string) {
		j, err := ParseJID(s)
		if err != nil {
			return
		}
		again, err := ParseJID(j.String())
		if err != nil || again != j {
			t.Fatalf("accepted JID %q did not round-trip: %v", s, err)
		}
	})
}
