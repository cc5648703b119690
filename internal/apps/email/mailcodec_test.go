package email

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/canonjson"
	"repro/internal/cloudsim/sim"
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

// wireMailbox is a mailbox with its index decoded: the value whose
// json.Marshal bytes the codec writes.
type wireMailbox struct {
	NextID  int          `json:"next_id"`
	Entries []IndexEntry `json:"entries"`
}

// fuzzMailbox builds a mailbox from fuzz inputs. shape's bits choose a
// nil, empty or filled entry list, an empty or set Message-ID, and nil,
// empty or filled rules, so every omitempty and null/[] case occurs.
func fuzzMailbox(id int, msgID, from, subject, rule string, sec int64, nsec int32, offsetMin int16, spam bool, score float64, shape uint8) *wireMailbox {
	box := &wireMailbox{NextID: id + 1}
	switch shape & 3 {
	case 0:
		return box
	case 1:
		box.Entries = []IndexEntry{}
		return box
	}
	date := time.Unix(sec, int64(nsec)).In(time.FixedZone("", int(offsetMin)*60))
	e := IndexEntry{
		ID: id, From: from, Subject: subject, Date: date,
		Spam: spam, Score: score, Size: int(nsec),
	}
	if shape&4 != 0 {
		e.MsgID = msgID
	}
	switch shape >> 3 & 3 {
	case 1:
		e.Rules = []string{}
	case 2:
		e.Rules = []string{rule}
	case 3:
		e.Rules = []string{rule, from, "BAYES"}
	}
	second := e
	second.ID, second.Score, second.Date = -id, score*1e-3, date.UTC()
	box.Entries = []IndexEntry{e, second, {Date: date.Add(time.Duration(sec))}}
	return box
}

// sameEntries compares decoded index entries: times by Equal (a
// decoded zone is a new Location), everything else exactly.
func sameEntries(got, want []IndexEntry) bool {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.Date.Equal(w.Date) {
			return false
		}
		g.Date, w.Date = time.Time{}, time.Time{}
		if !reflect.DeepEqual(g, w) {
			return false
		}
	}
	return true
}

// checkMailboxCodec compares the codec with encoding/json both ways.
// The encoder, given decoded entries, must write json.Marshal's bytes
// (or fail where it fails). Parsing those bytes must keep the index as
// written, which must decode to json.Unmarshal's entries and copy out,
// into the next mailbox or a list response, as the re-encoding of them.
func checkMailboxCodec(t *testing.T, w *wireMailbox) {
	t.Helper()
	want, wantErr := json.Marshal(w)
	buf, err := marshalMailbox(w.NextID, canonjson.Kept{}, w.Entries)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("marshalMailbox error %v, json.Marshal error %v", err, wantErr)
	}
	if wantErr != nil {
		return
	}
	if got := plaintext(buf); !bytes.Equal(got, want) {
		t.Fatalf("marshalMailbox:\n got %q\nwant %q", got, want)
	}

	var wantBox wireMailbox
	if err := json.Unmarshal(want, &wantBox); err != nil {
		t.Fatal(err)
	}
	wantIndex, err := json.Marshal(w.Entries)
	if err != nil {
		t.Fatal(err)
	}
	gotBox, err := parseMailbox(want, "")
	if err != nil {
		t.Fatalf("parseMailbox(%q): %v", want, err)
	}
	if kept := gotBox.Entries.Bytes(); gotBox.NextID != wantBox.NextID || (kept == nil) != (w.Entries == nil) || kept != nil && !bytes.Equal(kept, wantIndex) {
		t.Fatalf("parseMailbox(%q) = next %d, index %q; want next %d, index %q", want, gotBox.NextID, kept, wantBox.NextID, wantIndex)
	}
	gotEntries, err := parseIndexEntries(gotBox.Entries.Bytes())
	if err != nil {
		t.Fatalf("parseIndexEntries(%q): %v", gotBox.Entries.Bytes(), err)
	}
	if !sameEntries(gotEntries, wantBox.Entries) {
		t.Fatalf("parseIndexEntries(%q):\n got %#v\nwant %#v", gotBox.Entries.Bytes(), gotEntries, wantBox.Entries)
	}
	again, err := marshalMailbox(gotBox.NextID, gotBox.Entries, nil)
	if err != nil {
		t.Fatal(err)
	}
	if wantAgain, _ := json.Marshal(&wantBox); !bytes.Equal(plaintext(again), wantAgain) {
		t.Fatalf("re-encoded mailbox:\n got %q\nwant %q", plaintext(again), wantAgain)
	}
	if list, wantList := gotBox.Entries.Append(nil), mustMarshal(t, wantBox.Entries); !bytes.Equal(list, wantList) {
		t.Fatalf("list response:\n got %q\nwant %q", list, wantList)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func FuzzMailboxCodec(f *testing.F) {
	ls := string(rune(0x2028))
	f.Add(1, "<1@remote.net>", "bob@remote.net", "lunch?", "SUBJ_ALL_CAPS", int64(1496682000), int32(0), int16(-420), false, 0.0, uint8(0xff))
	f.Add(0, "", "", "", "", int64(0), int32(0), int16(0), false, 0.0, uint8(0))
	f.Add(2, "", "a", "b", "c", int64(0), int32(0), int16(0), false, 0.0, uint8(1))
	f.Add(3, "x", "\"quoted\" <a@b>", "fish & chips\t\n", "r"+ls, int64(1e9), int32(123456789), int16(330), true, 1e-6, uint8(0x1e))
	f.Add(4, "\xff", "bad\xc3\x28", "\x00\x1f", "BAYES", int64(-62135596800), int32(1), int16(-59), true, 2.5, uint8(0x0e))
	// Times at the edges of RFC 3339's range, where Marshal fails.
	f.Add(5, "m", "f", "s", "r", int64(253402300799), int32(999999999), int16(0), false, 1.0, uint8(0x16))
	f.Add(5, "m", "f", "s", "r", int64(253402300799), int32(999999999), int16(1439), false, 1.0, uint8(0x16))
	f.Add(6, "m", "f", "s", "r", int64(253402300800), int32(0), int16(0), false, 1.0, uint8(0x1a))
	f.Add(7, "m", "f", "s", "r", int64(0), int32(0), int16(1440), false, 1.0, uint8(0x06))
	// Scores either side of the 'f'/'e' cutoffs, extremes, and the
	// values Marshal refuses.
	for _, score := range []float64{
		1e-6, 9.999999999999999e-7, 1e-3, 9.99999999999e-4, 1e21, 9.999999999999999e20, 1e24,
		-1e-7, -5e-324, math.MaxFloat64, 123456.789, math.Inf(-1), math.NaN(),
	} {
		f.Add(8, "m", "f", "s", "r", int64(1496682000), int32(500), int16(-420), false, score, uint8(0x0a))
	}
	f.Fuzz(func(t *testing.T, id int, msgID, from, subject, rule string, sec int64, nsec int32, offsetMin int16, spam bool, score float64, shape uint8) {
		checkMailboxCodec(t, fuzzMailbox(id, msgID, from, subject, rule, sec, nsec, offsetMin, spam, score, shape))
	})
}

func TestParseMailboxRejectsNonCanonical(t *testing.T) {
	const entry = `{"id":1,"from":"a","subject":"s","date":"2017-06-05T10:00:00-07:00","spam":false,"size":3}`
	if _, err := parseMailbox([]byte(`{"next_id":2,"entries":[`+entry+`]}`), ""); err != nil {
		t.Fatalf("canonical mailbox rejected: %v", err)
	}
	for _, bad := range []string{
		`{"id":1,"msg_id":"","from":"a","subject":"s","date":"2017-06-05T10:00:00-07:00","spam":false,"size":3}`,
		`{"id":1,"from":"a","subject":"s","date":"2017-06-05T10:00:00-07:00","spam":false,"score":0,"size":3}`,
		`{"id":1,"from":"a","subject":"s","date":"2017-06-05T10:00:00-07:00","spam":false,"score":1.50,"size":3}`,
		`{"id":1,"from":"a","subject":"s","date":"2017-06-05T10:00:00-07:00","spam":false,"score":1E3,"size":3}`,
		`{"id":1,"from":"a","subject":"s","date":"2017-06-05T10:00:00-07:00","spam":false,"rules":[],"size":3}`,
		`{"id":1,"from":"a","subject":"s","date":"2017-06-05T10:00:00-07:00","spam":false,"rules":null,"size":3}`,
		`{"id":1,"from":"a","subject":"s","date":"2017-06-05 10:00:00","spam":false,"size":3}`,
		`{"id":1,"from":"a","subject":"s","date":"2017-06-05T10:00:00-07:00","spam":0,"size":3}`,
		`{"id":1,"from":"a","subject":"s","spam":false,"size":3}`,
	} {
		if _, err := parseMailbox([]byte(`{"next_id":2,"entries":[`+bad+`]}`), ""); err == nil {
			t.Errorf("parseMailbox accepted non-canonical entry %s", bad)
		}
	}
}

// FuzzMailboxSplice holds the kept-encoded index to the decoding codec.
// parseMailbox must accept exactly the mailboxes whose index
// readIndexEntries accepts, and keep the index as read; its Message-ID
// lookup must find the first entry whose decoded msg_id equals the id
// as it would read back once stored (encoding/json's round trip, which
// turns each invalid UTF-8 byte into U+FFFD);
// and unless one does, splicing the delivery's entry onto the kept
// bytes must write json.Marshal's bytes for the decoded index with the
// entry appended (which also needs the entry count right: a comma goes
// after every old entry), or fail where json.Marshal fails.
func FuzzMailboxSplice(f *testing.F) {
	const e1 = `{"id":1,"msg_id":"\u003c1@remote.net\u003e","from":"bob@remote.net","subject":"hi","date":"2017-06-05T10:00:00-07:00","spam":false,"size":3}`
	const e2 = `{"id":2,"from":"a","subject":"\"q\" \ufffd\u2028","date":"2017-06-05T17:00:00Z","spam":true,"score":7.5,"rules":["BAYES","\u0026"],"size":0}`
	const e3 = `{"id":-3,"msg_id":"x\ufffd","from":"","subject":"","date":"0001-01-01T00:00:00Z","spam":false,"score":1e-7,"size":-1}`
	for _, index := range []string{
		`null`, `[]`, `[` + e1 + `]`, `[` + e1 + `,` + e2 + `,` + e3 + `]`, `[` + e3 + `,` + e1 + `,` + e1 + `]`,
		// Rejected: each differs from a canonical index in one place.
		``, `[`, `[,]`, `[` + e1 + `,]`, `[` + e1 + `]x`, `[{}]`,
		`[{"id":1,"msg_id":"","from":"a","subject":"s","date":"2017-06-05T10:00:00Z","spam":false,"size":3}]`,
		`[{"id":1,"from":"a","subject":"s","date":"2017-06-05T10:00:00Z","spam":false,"score":0,"size":3}]`,
		`[{"id":1,"from":"a","subject":"s","date":"2017-06-05T10:00:00Z","spam":false,"rules":[],"size":3}]`,
		`[{"id":1,"from":"a","subject":"s","date":"2017-06-05T10:00:00Z","spam":false,"rules":null,"size":3}]`,
		`[{"id":1,"from":"a","subject":"s","date":"2017-06-05T10:00:00+00:00","spam":false,"size":3}]`,
		`[{"id":1,"from":"a","subject":"<","date":"2017-06-05T10:00:00Z","spam":false,"size":3}]`,
		`[{"id":1,"from":"a","subject":"s","date":"2017-06-05T10:00:00Z","spam":false,"size":03}]`,
	} {
		for _, msgID := range []string{"", "<1@remote.net>", "x\uFFFD", "x\xff", "x\xff\xfe", "\xe2\x28\xa1"} {
			f.Add([]byte(index), msgID, "carol@remote.net", "new <mail> & more", int64(1496682000), true, 2.5)
		}
		f.Add([]byte(index), "new", "\xc3\x28", "", int64(253402300800), false, math.NaN())
	}
	f.Fuzz(func(t *testing.T, index []byte, msgID, from, subject string, sec int64, spam bool, score float64) {
		r := canonjson.NewReader(index)
		entries := readIndexEntries(r)
		wantErr := r.Done()
		pt := []byte(`{"next_id":7,"entries":` + string(index) + `}`)
		box, err := parseMailbox(pt, msgID)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("parseMailbox(%q) error %v, readIndexEntries error %v", pt, err, wantErr)
		}
		if wantErr != nil {
			return
		}
		if kept := box.Entries.Bytes(); box.NextID != 7 || (kept == nil) != (entries == nil) || kept != nil && !bytes.Equal(kept, index) {
			t.Fatalf("parseMailbox(%q) kept next %d, index %q", pt, box.NextID, kept)
		}
		var storedID string
		if enc, err := json.Marshal(msgID); err != nil || json.Unmarshal(enc, &storedID) != nil {
			t.Fatalf("json round trip of %q: %v", msgID, err)
		}
		dup, found := 0, false
		for _, e := range entries {
			if msgID != "" && e.MsgID == storedID {
				dup, found = e.ID, true
				break
			}
		}
		if box.found != found || box.dup != dup {
			t.Fatalf("parseMailbox(%q) found Message-ID %q %v in entry %d, want %v in entry %d", pt, msgID, box.found, box.dup, found, dup)
		}
		if found {
			return
		}

		e := IndexEntry{
			ID: box.NextID, MsgID: msgID, From: from, Subject: subject,
			Date: time.Unix(sec, 0).UTC(), Spam: spam, Score: score, Size: len(subject),
		}
		if spam {
			e.Rules = []string{from}
		}
		want, wantErr := json.Marshal(wireMailbox{NextID: box.NextID + 1, Entries: append(entries, e)})
		buf, err := marshalMailbox(box.NextID+1, box.Entries, []IndexEntry{e})
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("splice error %v, json.Marshal error %v", err, wantErr)
		}
		if got := plaintext(buf); wantErr == nil && !bytes.Equal(got, want) {
			t.Fatalf("index %q + %+v:\n got %q\nwant %q", index, e, got, want)
		}
	})
}

// bigMailbox builds a 200-entry mailbox like the ones deliveries build:
// dates from mail headers and no spam filter. With escapes, Message-IDs
// carry their usual angle brackets and every tenth subject needs
// escapes too. It reports how many entries hold an escaped string.
func bigMailbox(escapes bool) (box *wireMailbox, escaped int) {
	box = &wireMailbox{NextID: 1}
	base := time.Date(2017, 6, 5, 10, 0, 0, 0, time.FixedZone("", -7*3600))
	for i := 0; i < 200; i++ {
		msgID := fmt.Sprintf("%d@remote.net", i)
		subject := fmt.Sprintf("weekly report %d", i)
		if escapes {
			msgID = "<" + msgID + ">"
			if i%10 == 0 {
				subject += " <draft> & notes"
			}
			escaped++
		}
		box.Entries = append(box.Entries, IndexEntry{
			ID: box.NextID, MsgID: msgID, From: "bob@remote.net", Subject: subject,
			Date: base.Add(time.Duration(i) * 37 * time.Minute), Size: 900 + i,
		})
		box.NextID++
	}
	return box, escaped
}

// The codec's allocation counts are exact and host-independent. The
// encoder allocates its one presized buffer, copying the kept index
// with or without a delivery's entry spliced on. The parser allocates
// the mailbox alone, whatever the entries hold, escaped or not, and
// whether or not it looks for a Message-ID (the last entry's, so it
// compares against every one): the entries stay encoded.
func TestMailboxCodecAllocs(t *testing.T) {
	for _, escapes := range []bool{false, true} {
		w, escaped := bigMailbox(escapes)
		pt, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		box, err := parseMailbox(pt, "")
		if err != nil {
			t.Fatal(err)
		}
		delivery := w.Entries[0]
		delivery.ID, delivery.MsgID = box.NextID, "<new@remote.net>"
		for _, added := range [][]IndexEntry{nil, {delivery}} {
			buf, err := marshalMailbox(box.NextID+1, box.Entries, added)
			if err != nil {
				t.Fatal(err)
			}
			if spare := cap(buf) - len(buf); spare < envelope.Overhead {
				t.Errorf("mailbox encoded with %d bytes spare, want at least the %d-byte GCM tag", spare, envelope.Overhead)
			}
			enc := testing.AllocsPerRun(20, func() {
				if _, err := marshalMailbox(box.NextID+1, box.Entries, added); err != nil {
					t.Fatal(err)
				}
			})
			if enc != 1 {
				t.Errorf("encoding a %d-entry mailbox (%d added): %v allocs, want exactly 1", len(w.Entries), len(added), enc)
			}
		}
		for _, msgID := range []string{"", w.Entries[len(w.Entries)-1].MsgID} {
			dec := testing.AllocsPerRun(20, func() {
				if _, err := parseMailbox(pt, msgID); err != nil {
					t.Fatal(err)
				}
			})
			if dec != 1 {
				t.Errorf("decoding a %d-entry mailbox with %d escaped entries (looking for %q): %v allocs, want exactly 1", len(w.Entries), escaped, msgID, dec)
			}
		}
	}
}

// A failed state read must fail the delivery, not be taken for an
// empty mailbox: saving an empty index over an unreadable one would
// lose every earlier message.
func TestUnreadableMailboxFailsDeliveryAndKeepsIndex(t *testing.T) {
	cloud, d := newMailbox(t, nil)
	subjects := []string{"one", "two", "three"}
	for _, s := range subjects {
		deliver(t, cloud, "bob@remote.net", s, "body of "+s)
	}

	restore := denyStateReads(t, cloud, d)
	raw := "From: carol@remote.net\r\nSubject: lost?\r\n\r\nhello\r\n"
	ctx := &sim.Context{App: "email", Cursor: sim.NewCursor(cloud.Clock.Now())}
	if err := cloud.SES.Deliver(ctx, "carol@remote.net", "alice@"+MailDomain, []byte(raw)); err == nil {
		t.Fatal("delivery succeeded although the mailbox index could not be read")
	}
	restore()

	var got []string
	for _, e := range listEntries(t, d) {
		got = append(got, e.Subject)
	}
	if strings.Join(got, "|") != strings.Join(subjects, "|") {
		t.Fatalf("index after the failed read = %q, want %q", got, subjects)
	}
	deliver(t, cloud, "bob@remote.net", "four", "after recovery")
	if n := len(listEntries(t, d)); n != len(subjects)+1 {
		t.Fatalf("index after recovery has %d entries, want %d", n, len(subjects)+1)
	}
}
