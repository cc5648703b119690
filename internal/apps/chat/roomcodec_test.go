package chat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/s3"
)

// fuzzRoomDoc builds a room document from fuzz inputs. shape's bits
// choose nil versus empty versus filled for each slice and the map, so
// both null and [] (and an absent versus present last_id) are covered.
func fuzzRoomDoc(from, body, member, id string, seq int, shape uint8) *roomDoc {
	list := func(bits uint8, vals ...string) []string {
		switch bits & 3 {
		case 0:
			return nil
		case 1:
			return []string{}
		default:
			return vals
		}
	}
	doc := &roomDoc{
		Chunks:   seq & 0xff,
		Messages: -seq,
		Members:  list(shape, member, from),
		Present:  list(shape>>2, from, member, body),
	}
	switch shape >> 4 & 3 {
	case 1:
		doc.Entries = []historyEntry{}
	case 2, 3:
		doc.Entries = []historyEntry{
			{From: from, Body: body, Seq: seq},
			{From: member, Body: from + body, Seq: seq >> 7},
			{},
		}
	}
	switch shape >> 6 {
	case 1:
		doc.LastID = map[string]string{}
	case 2:
		doc.LastID = map[string]string{from: id}
	case 3:
		doc.LastID = map[string]string{from: id, member: body, body: "", id + member: from}
	}
	return doc
}

// checkRoomDocCodec compares the codecs with encoding/json both ways:
// the encoder must write json.Marshal's bytes, and parsing those bytes
// must give json.Unmarshal's value.
func checkRoomDocCodec(t *testing.T, doc *roomDoc) {
	t.Helper()
	want, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalRoomDoc(doc); !bytes.Equal(got, want) {
		t.Fatalf("marshalRoomDoc:\n got %q\nwant %q", got, want)
	}
	var wantDoc roomDoc
	if err := json.Unmarshal(want, &wantDoc); err != nil {
		t.Fatal(err)
	}
	gotDoc, err := parseRoomDoc(want)
	if err != nil {
		t.Fatalf("parseRoomDoc(%q): %v", want, err)
	}
	if !reflect.DeepEqual(*gotDoc, wantDoc) {
		t.Fatalf("parseRoomDoc(%q):\n got %#v\nwant %#v", want, *gotDoc, wantDoc)
	}

	want, err = json.Marshal(doc.Entries)
	if err != nil {
		t.Fatal(err)
	}
	if got := marshalEntries(doc.Entries); !bytes.Equal(got, want) {
		t.Fatalf("marshalEntries:\n got %q\nwant %q", got, want)
	}
	var wantEntries []historyEntry
	if err := json.Unmarshal(want, &wantEntries); err != nil {
		t.Fatal(err)
	}
	gotEntries, err := parseEntries(want)
	if err != nil {
		t.Fatalf("parseEntries(%q): %v", want, err)
	}
	if !reflect.DeepEqual(gotEntries, wantEntries) {
		t.Fatalf("parseEntries(%q):\n got %#v\nwant %#v", want, gotEntries, wantEntries)
	}
}

func FuzzRoomDocCodec(f *testing.F) {
	ls, ps := string(rune(0x2028)), string(rune(0x2029))
	f.Add("alice", "hello bob", "bob", "alice-1", 1, uint8(0xff))
	f.Add("", "", "", "", 0, uint8(0))
	f.Add("a", "b", "c", "d", 7, uint8(0x55))
	f.Add("bob", "<b>fish & chips</b>", "carol", "bob-99", -42, uint8(0xaa))
	f.Add("x\"y\\z", "tab\there\nnew\rret\bback\ffeed\x00\x1f\x7f", "m", "id", 1<<40, uint8(0xee))
	f.Add("bad\xffutf8", "line"+ls+"para"+ps+"end", "\xc3\x28", "\xed\xa0\x80", -1<<63, uint8(0xdb))
	f.Add("日本語", "emoji \U0001F600 and \xef\xbf\xbd", "ünï", "ü-1", 1<<63-1, uint8(0x3c))
	f.Fuzz(func(t *testing.T, from, body, member, id string, seq int, shape uint8) {
		checkRoomDocCodec(t, fuzzRoomDoc(from, body, member, id, seq, shape))
	})
}

func TestParseRoomDocRejectsNonCanonical(t *testing.T) {
	canonical := `{"chunks":0,"messages":1,"members":["a"],"present":null,"entries":[{"from":"a","body":"b","seq":1}],"last_id":{"a":"a-1"}}`
	if _, err := parseRoomDoc([]byte(canonical)); err != nil {
		t.Fatalf("canonical doc rejected: %v", err)
	}
	// In these inputs '~' stands for a backslash.
	for _, bad := range []string{
		``,
		`{"chunks":0,"messages":1,"members":["a"],"present":null,"entries":[{"from":"a","body":"b","seq":1}]}x`,
		`{"chunks":0, "messages":1,"members":["a"],"present":null,"entries":null}`,
		`{"messages":1,"chunks":0,"members":["a"],"present":null,"entries":null}`,
		`{"chunks":00,"messages":1,"members":["a"],"present":null,"entries":null}`,
		`{"chunks":0,"messages":1,"members":["a",],"present":null,"entries":null}`,
		`{"chunks":0,"messages":1,"members":["a"],"present":null,"entries":null,"last_id":{}}`,
		`{"chunks":0,"messages":1,"members":["<"],"present":null,"entries":null}`,
		`{"chunks":0,"messages":1,"members":["~u003C"],"present":null,"entries":null}`,
		`{"chunks":0,"messages":1,"members":["~/"],"present":null,"entries":null}`,
		`{"chunks":0,"messages":1,"members":["a"],"present":null,"entries":[{"from":"a","body":"b","seq":1,"x":1}]}`,
		`{"chunks":0,"messages":1,"members":["a"],"present":null,"entries":[{"body":"b","from":"a","seq":1}]}`,
		`{"chunks":0,"messages":1,"members":["~u0008"],"present":null,"entries":null}`,
		`{"chunks":0,"messages":1,"members":["~ufffe"],"present":null,"entries":null}`,
		`{"chunks":0,"messages":1,"members":null,"present":null,"entries":null,"last_id":{"b":"b-1","a":"a-1"}}`,
		`{"chunks":0,"messages":1,"members":null,"present":null,"entries":null,"last_id":{"a":"a-1","a":"a-2"}}`,
	} {
		bad = strings.ReplaceAll(bad, "~", "\\")
		if _, err := parseRoomDoc([]byte(bad)); err == nil {
			t.Errorf("parseRoomDoc(%q) accepted non-canonical input", bad)
		}
	}
	if _, err := parseEntries([]byte(`[]x`)); err == nil {
		t.Error("parseEntries accepted trailing bytes")
	}
}

// bigRoomDoc builds a room document of about 60 KB, the live tail just
// under the 64 KB chunk limit. With escapes, every tenth body needs
// them. It reports how many entries hold an escaped string.
func bigRoomDoc(escapes bool) (doc *roomDoc, escaped int) {
	members := []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}
	doc = &roomDoc{
		Chunks:  3,
		Members: members,
		Present: members[:5],
		LastID:  map[string]string{},
	}
	for size := 0; size < 56<<10; {
		from := members[doc.Messages%len(members)]
		body := fmt.Sprintf("message %d from %s about the usual things in the usual words", doc.Messages, from)
		if escapes && doc.Messages%10 == 0 {
			body += ` <b>"quoted" & bold</b>`
			escaped++
		}
		doc.Messages++
		doc.Entries = append(doc.Entries, historyEntry{From: from, Body: body, Seq: doc.Messages})
		doc.LastID[from] = fmt.Sprintf("%s-%d", from, doc.Messages)
		size += len(body) + len(from) + 30
	}
	return doc, escaped
}

// The codec's allocation counts are exact and host-independent. The
// encoder allocates its one presized buffer. Without escapes the parser
// allocates a fixed six objects whatever the entry count: the doc, its
// entry slice, the members and present lists, and the last_id map
// (header and slot group); strings alias the input. Escaped strings
// share one doubling buffer, so with escapes it stays within the bound
// of three plus one per entry holding an escaped string.
func TestRoomDocCodecAllocs(t *testing.T) {
	for _, escapes := range []bool{false, true} {
		doc, escaped := bigRoomDoc(escapes)
		pt := marshalRoomDoc(doc)
		if len(pt) < 56<<10 || len(pt) > 64<<10 {
			t.Fatalf("fixture encodes to %d bytes, want about 60 KB", len(pt))
		}
		enc := testing.AllocsPerRun(20, func() { marshalRoomDoc(doc) })
		if enc != 1 {
			t.Errorf("encoding a %d-byte room doc: %v allocs, want exactly 1", len(pt), enc)
		}
		dec := testing.AllocsPerRun(20, func() {
			if _, err := parseRoomDoc(pt); err != nil {
				t.Fatal(err)
			}
		})
		switch {
		case !escapes && dec != 6:
			t.Errorf("decoding a %d-byte room doc without escapes: %v allocs, want exactly 6", len(pt), dec)
		case escapes && dec > float64(3+escaped):
			t.Errorf("decoding a %d-byte room doc with %d escaped entries: %v allocs, want at most %d", len(pt), escaped, dec, 3+escaped)
		}
		t.Logf("%d-byte room doc, %d entries (%d escaped): encode %v allocs, decode %v allocs", len(pt), len(doc.Entries), escaped, enc, dec)
	}
}

var sinkBytes []byte
var sinkDoc *roomDoc

// BenchmarkRoomDocCodec sets the hand-written codec beside encoding/json
// on the ~60 KB room document a send reads and rewrites.
func BenchmarkRoomDocCodec(b *testing.B) {
	doc, _ := bigRoomDoc(true)
	pt := marshalRoomDoc(doc)
	b.Run("encode/canonjson", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(pt)))
		for i := 0; i < b.N; i++ {
			sinkBytes = marshalRoomDoc(doc)
		}
	})
	b.Run("encode/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(pt)))
		for i := 0; i < b.N; i++ {
			sinkBytes, _ = json.Marshal(doc)
		}
	})
	b.Run("decode/canonjson", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(pt)))
		for i := 0; i < b.N; i++ {
			sinkDoc, _ = parseRoomDoc(pt)
		}
	})
	b.Run("decode/encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(pt)))
		for i := 0; i < b.N; i++ {
			var d roomDoc
			_ = json.Unmarshal(pt, &d)
			sinkDoc = &d
		}
	})
}

// A failed state read must fail the send, not be taken for an empty
// room: saving an empty room over an unreadable one would destroy the
// history.
func TestUnreadableRoomFailsSendAndKeepsHistory(t *testing.T) {
	cloud, d := newRoom(t)
	alice := session(t, d, "alice")
	bob := session(t, d, "bob")
	var sent []string
	for i := 0; i < 4; i++ {
		body := fmt.Sprintf("message %d", i)
		if _, err := alice.Send(body); err != nil {
			t.Fatal(err)
		}
		sent = append(sent, body)
	}

	role, ok := cloud.IAM.Role(d.Role)
	if !ok {
		t.Fatalf("no role %q", d.Role)
	}
	orig := *role
	denied := orig
	denied.Policies = append(append([]iam.Policy(nil), orig.Policies...), iam.Policy{
		Name:       "deny-state-reads",
		Statements: []iam.Statement{iam.DenyStatement([]string{s3.ActionGet}, []string{"*"})},
	})
	if err := cloud.IAM.PutRole(&denied); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Send("lost?"); err == nil {
		t.Fatal("send succeeded although the room doc could not be read")
	}
	if err := cloud.IAM.PutRole(&orig); err != nil {
		t.Fatal(err)
	}

	hist, err := alice.History()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, m := range hist {
		got = append(got, m.Body)
	}
	if strings.Join(got, "|") != strings.Join(sent, "|") {
		t.Fatalf("history after the failed read = %q, want %q", got, sent)
	}
	if _, err := bob.Send("after"); err != nil {
		t.Fatal(err)
	}
	if hist, err = alice.History(); err != nil || len(hist) != len(sent)+1 {
		t.Fatalf("history after recovery has %d messages (err %v), want %d", len(hist), err, len(sent)+1)
	}
}
