package chat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/canonjson"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/s3"
	"repro/internal/crypto/envelope"
)

// plaintext returns the JSON a sealed-document encoder wrote behind the
// envelope header it reserves; a failed encoding's nil stays nil.
func plaintext(buf []byte) []byte {
	if buf == nil {
		return nil
	}
	return buf[envelope.Header:]
}

// wireRoomDoc is a room document with its live tail decoded: the value
// whose json.Marshal bytes the codec writes.
type wireRoomDoc struct {
	Chunks   int               `json:"chunks"`
	Messages int               `json:"messages"`
	Members  []string          `json:"members"`
	Present  []string          `json:"present"`
	Entries  []historyEntry    `json:"entries"`
	LastID   map[string]string `json:"last_id,omitempty"`
}

// entriesSize is the tail size message computes from decoded entries.
func entriesSize(entries []historyEntry) int {
	n := 0
	for _, e := range entries {
		n += len(e.From) + len(e.Body) + entryOverhead
	}
	return n
}

// encodedDoc is w with its tail kept as json.Marshal encodes it and
// sized from w: the document parseRoomDoc returns for json.Marshal(w)
// when w's strings are valid UTF-8.
func encodedDoc(t testing.TB, w *wireRoomDoc) *roomDoc {
	t.Helper()
	enc, err := json.Marshal(w.Entries)
	if err != nil {
		t.Fatal(err)
	}
	r := canonjson.NewReader(enc)
	tail, _ := scanEntries(r)
	if err := r.Done(); err != nil {
		t.Fatalf("scanEntries(%q): %v", enc, err)
	}
	return &roomDoc{
		Chunks: w.Chunks, Messages: w.Messages, Members: w.Members, Present: w.Present, LastID: w.LastID,
		Entries: tail, tailSize: entriesSize(w.Entries),
	}
}

// fuzzRoomDoc builds a room document from fuzz inputs. shape's bits
// choose nil versus empty versus filled for each slice and the map, so
// both null and [] (and an absent versus present last_id) are covered.
func fuzzRoomDoc(from, body, member, id string, seq int, shape uint8) *wireRoomDoc {
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
	doc := &wireRoomDoc{
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

// checkRoomDocCodec compares the codecs with encoding/json both ways.
// Parsing json.Marshal's bytes must give json.Unmarshal's header and
// keep the tail as written, and the kept tail must decode to
// json.Unmarshal's entries. The encoder must write json.Marshal's bytes
// for the header it holds and the tail's decoded value: the tail is
// only ever held kept, and a copy of it writes a \ufffd escape (for
// invalid UTF-8) as the U+FFFD it decodes to.
func checkRoomDocCodec(t *testing.T, w *wireRoomDoc) {
	t.Helper()
	want, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	var wantDoc wireRoomDoc
	if err := json.Unmarshal(want, &wantDoc); err != nil {
		t.Fatal(err)
	}
	held := *w
	held.Entries = wantDoc.Entries
	wantHeld, err := json.Marshal(&held)
	if err != nil {
		t.Fatal(err)
	}
	if got := plaintext(marshalRoomDoc(encodedDoc(t, w))); !bytes.Equal(got, wantHeld) {
		t.Fatalf("marshalRoomDoc:\n got %q\nwant %q", got, wantHeld)
	}

	gotDoc, err := parseRoomDoc(want)
	if err != nil {
		t.Fatalf("parseRoomDoc(%q): %v", want, err)
	}
	wantParsed := encodedDoc(t, &wantDoc)
	wantParsed.Entries = encodedDoc(t, w).Entries
	if !reflect.DeepEqual(*gotDoc, *wantParsed) {
		t.Fatalf("parseRoomDoc(%q):\n got %#v\nwant %#v", want, *gotDoc, *wantParsed)
	}
	gotTail, err := parseEntries(gotDoc.Entries.Bytes())
	if err != nil {
		t.Fatalf("parseEntries(%q): %v", gotDoc.Entries.Bytes(), err)
	}
	if !reflect.DeepEqual(gotTail, wantDoc.Entries) {
		t.Fatalf("parseEntries(%q):\n got %#v\nwant %#v", gotDoc.Entries.Bytes(), gotTail, wantDoc.Entries)
	}
	if again, _ := json.Marshal(&wantDoc); !bytes.Equal(plaintext(marshalRoomDoc(gotDoc)), again) {
		t.Fatalf("re-encoded room doc:\n got %q\nwant %q", plaintext(marshalRoomDoc(gotDoc)), again)
	}

	// An archived chunk: the kept tail alone, and the chunk parser.
	wantChunk, err := json.Marshal(wantDoc.Entries)
	if err != nil {
		t.Fatal(err)
	}
	if got := plaintext(marshalTail(gotDoc)); !bytes.Equal(got, wantChunk) {
		t.Fatalf("marshalTail:\n got %q\nwant %q", got, wantChunk)
	}
	chunk, err := json.Marshal(w.Entries)
	if err != nil {
		t.Fatal(err)
	}
	gotEntries, err := parseEntries(chunk)
	if err != nil {
		t.Fatalf("parseEntries(%q): %v", chunk, err)
	}
	if !reflect.DeepEqual(gotEntries, wantDoc.Entries) {
		t.Fatalf("parseEntries(%q):\n got %#v\nwant %#v", chunk, gotEntries, wantDoc.Entries)
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

// FuzzRoomDocSplice holds the kept-encoded tail to the decoding codec.
// scanEntries must accept exactly the arrays readEntries accepts, keep
// them as read, and size them as message would the decoded entries;
// splicing a new entry onto the kept bytes must write json.Marshal's
// bytes for the decoded entries with the new one appended (which also
// needs the entry count right: a comma goes after every old entry),
// both in the room document and, when the tail rolls, in the archived
// chunk, which leaves a null tail behind.
func FuzzRoomDocSplice(f *testing.F) {
	for _, tail := range []string{
		`null`, `[]`, `[{"from":"a","body":"b","seq":1}]`,
		`[{"from":"alice","body":"hi","seq":1},{"from":"bob","body":"\u003cb\u003e \"q\" \\ \n\ufffd\u2028","seq":-2}]`,
		`[{"from":"","body":"","seq":0},{"from":"日本","body":"😀","seq":9223372036854775807}]`,
		// Rejected: each differs from a canonical array in one place.
		``, `nul`, `null `, `[`, `[,]`, `[]]`, `[{}]`, `{"from":"a","body":"b","seq":1}`,
		`[{"from":"a","body":"b","seq":01}]`, `[{"from":"a","body":"b","seq":-0}]`,
		`[{"body":"b","from":"a","seq":1}]`, `[{"from":"a","body":"b","seq":1,"x":1}]`,
		`[{"from":"a","body":"b","seq":1},]`, `[{"from":"a","body":"b","seq":1} ]`,
		`[{"from":"a","body":"<","seq":1}]`, `[{"from":"a","body":"\u003C","seq":1}]`,
		`[{"from":"a","body":"\/","seq":1}]`, "[{\"from\":\"a\",\"body\":\"\xff\",\"seq\":1}]",
		`[{"from":"a","body":"b","seq":1}]x`,
	} {
		f.Add([]byte(tail), "carol", "new <msg> & more", 7, false)
		f.Add([]byte(tail), "x\"y", "", -1, true)
	}
	f.Fuzz(func(t *testing.T, tail []byte, from, body string, seq int, roll bool) {
		r := canonjson.NewReader(tail)
		entries := readEntries(r)
		wantErr := r.Done()
		r = canonjson.NewReader(tail)
		kept, size := scanEntries(r)
		if err := r.Done(); (err == nil) != (wantErr == nil) {
			t.Fatalf("scanEntries(%q) error %v, readEntries error %v", tail, err, wantErr)
		}
		if wantErr != nil {
			return
		}
		if size != entriesSize(entries) {
			t.Fatalf("scanEntries(%q) sized %d, decoded entries %d", tail, size, entriesSize(entries))
		}
		if span := kept.Bytes(); (span == nil) != (entries == nil) || span != nil && !bytes.Equal(span, tail) {
			t.Fatalf("scanEntries(%q) kept %q", tail, span)
		}

		e := historyEntry{From: from, Body: body, Seq: seq}
		w := &wireRoomDoc{Chunks: 2, Messages: seq, Members: []string{from, "bob"}, Entries: append(entries, e), LastID: map[string]string{from: body}}
		doc := &roomDoc{Chunks: 2, Messages: seq, Members: w.Members, LastID: w.LastID, Entries: kept, tailSize: size, add: &e}
		if roll {
			want, err := json.Marshal(w.Entries)
			if err != nil {
				t.Fatal(err)
			}
			if got := plaintext(marshalTail(doc)); !bytes.Equal(got, want) {
				t.Fatalf("archived chunk of %q + %+v:\n got %q\nwant %q", tail, e, got, want)
			}
			w.Chunks++
			w.Entries = nil
			doc.Chunks++
			doc.Entries, doc.tailSize, doc.add = canonjson.Kept{}, 0, nil
		}
		want, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		if got := plaintext(marshalRoomDoc(doc)); !bytes.Equal(got, want) {
			t.Fatalf("room doc with %q + %+v (roll %v):\n got %q\nwant %q", tail, e, roll, got, want)
		}
	})
}

// bigRoomDoc builds a room document of about 60 KB, the live tail just
// under the 64 KB chunk limit. With escapes, every tenth body needs
// them. It reports how many entries hold an escaped string.
func bigRoomDoc(escapes bool) (doc *wireRoomDoc, escaped int) {
	members := []string{"alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"}
	doc = &wireRoomDoc{
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

// sendEntry is the entry a send to bigRoomDoc's room appends: an
// escaped body, so the splice's sizing covers escapes.
var sendEntry = historyEntry{From: "alice", Body: `one more <message> & "quote"`, Seq: 1 << 20}

// The codec's allocation counts are exact and host-independent. The
// encoder allocates its one presized buffer, which leaves room for the
// GCM tag so the document seals in place; splicing a new entry onto the
// tail changes neither. The parser allocates a fixed five objects
// whatever the entries hold, escaped or not: the doc, the members and
// present lists, and the last_id map (header and slot group); the
// entries stay encoded, and strings alias the input.
func TestRoomDocCodecAllocs(t *testing.T) {
	for _, escapes := range []bool{false, true} {
		w, escaped := bigRoomDoc(escapes)
		pt := plaintext(marshalRoomDoc(encodedDoc(t, w)))
		if len(pt) < 56<<10 || len(pt) > 64<<10 {
			t.Fatalf("fixture encodes to %d bytes, want about 60 KB", len(pt))
		}
		doc, err := parseRoomDoc(pt)
		if err != nil {
			t.Fatal(err)
		}
		for _, add := range []*historyEntry{nil, &sendEntry} {
			doc.add = add
			buf := marshalRoomDoc(doc)
			if spare := cap(buf) - len(buf); spare < envelope.Overhead {
				t.Errorf("room doc encoded with %d bytes spare, want at least the %d-byte GCM tag", spare, envelope.Overhead)
			}
			enc := testing.AllocsPerRun(20, func() { marshalRoomDoc(doc) })
			if enc != 1 {
				t.Errorf("encoding a %d-byte room doc (new entry %v): %v allocs, want exactly 1", len(pt), add != nil, enc)
			}
		}
		dec := testing.AllocsPerRun(20, func() {
			if _, err := parseRoomDoc(pt); err != nil {
				t.Fatal(err)
			}
		})
		if dec != 5 {
			t.Errorf("decoding a %d-byte room doc with %d escaped entries: %v allocs, want exactly 5", len(pt), escaped, dec)
		}
		t.Logf("%d-byte room doc, %d entries (%d escaped): decode %v allocs", len(pt), len(w.Entries), escaped, dec)
	}
}

// appendEntries encodes entries whole, as the room codec did before the
// tail stayed encoded: the baseline of the send benchmark.
func appendEntries(b []byte, entries []historyEntry) []byte {
	b = append(b, '[')
	for i := range entries {
		e := &entries[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"from":`...)
		b = canonjson.AppendString(b, e.From)
		b = append(b, `,"body":`...)
		b = canonjson.AppendString(b, e.Body)
		b = append(b, `,"seq":`...)
		b = canonjson.AppendInt(b, e.Seq)
		b = append(b, '}')
	}
	return append(b, ']')
}

var sinkBytes []byte
var sinkDoc *roomDoc
var sinkWire *wireRoomDoc

// BenchmarkRoomDocCodec sets the hand-written codec beside encoding/json
// on the ~60 KB room document a send reads and rewrites, and a send's
// splice beside decoding and re-encoding the whole tail.
func BenchmarkRoomDocCodec(b *testing.B) {
	w, _ := bigRoomDoc(true)
	doc := encodedDoc(b, w)
	pt := plaintext(marshalRoomDoc(doc))
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
			sinkBytes, _ = json.Marshal(w)
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
			var d wireRoomDoc
			_ = json.Unmarshal(pt, &d)
			sinkWire = &d
		}
	})
	// A send's codec work: parse, append one entry, encode. The splice
	// scans the tail and copies it. The re-encode does the work of the
	// codec before the tail stayed encoded: it parses the header,
	// decodes every entry, totals the tail, and escapes every entry
	// again (into a buffer of its own, the header into another).
	head := plaintext(marshalRoomDoc(&roomDoc{Chunks: w.Chunks, Messages: w.Messages, Members: w.Members, Present: w.Present, LastID: w.LastID}))
	b.Run("send/splice", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(pt)))
		for i := 0; i < b.N; i++ {
			d, err := parseRoomDoc(pt)
			if err != nil {
				b.Fatal(err)
			}
			d.add = &sendEntry
			sinkBytes = marshalRoomDoc(d)
		}
	})
	b.Run("send/reencode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(pt)))
		for i := 0; i < b.N; i++ {
			d, err := parseRoomDoc(head)
			if err != nil {
				b.Fatal(err)
			}
			entries, err := parseEntries(doc.Entries.Bytes())
			if err != nil {
				b.Fatal(err)
			}
			entries = append(entries, sendEntry)
			if entriesSize(entries) > chunkLimit {
				b.Fatal("fixture tail over the chunk limit")
			}
			sinkBytes = appendEntries(envelope.NewBuffer(len(pt)+canonjson.Headroom(len(pt))), entries)
			sinkBytes = marshalRoomDoc(d)
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
