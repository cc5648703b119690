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

	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/s3"
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

// fuzzMailbox builds a mailbox from fuzz inputs. shape's bits choose a
// nil, empty or filled entry list, an empty or set Message-ID, and nil,
// empty or filled rules, so every omitempty and null/[] case occurs.
func fuzzMailbox(id int, msgID, from, subject, rule string, sec int64, nsec int32, offsetMin int16, spam bool, score float64, shape uint8) *mailbox {
	box := &mailbox{NextID: id + 1}
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

// checkMailboxCodec compares the codec with encoding/json both ways:
// the encoder must write json.Marshal's bytes (or fail where it fails),
// and parsing those bytes must give json.Unmarshal's value, which must
// re-encode to the same bytes.
func checkMailboxCodec(t *testing.T, box *mailbox) {
	t.Helper()
	want, wantErr := json.Marshal(box)
	buf, err := marshalMailbox(box)
	got := plaintext(buf)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("marshalMailbox error %v, json.Marshal error %v", err, wantErr)
	}
	wantList, wantListErr := json.Marshal(box.Entries)
	gotList, listErr := marshalIndexEntries(box.Entries)
	if (listErr != nil) != (wantListErr != nil) {
		t.Fatalf("marshalIndexEntries error %v, json.Marshal error %v", listErr, wantListErr)
	}
	if wantErr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("marshalMailbox:\n got %q\nwant %q", got, want)
	}
	if !bytes.Equal(gotList, wantList) {
		t.Fatalf("marshalIndexEntries:\n got %q\nwant %q", gotList, wantList)
	}

	var wantBox mailbox
	if err := json.Unmarshal(want, &wantBox); err != nil {
		t.Fatal(err)
	}
	gotBox, err := parseMailbox(want)
	if err != nil {
		t.Fatalf("parseMailbox(%q): %v", want, err)
	}
	if gotBox.NextID != wantBox.NextID || !sameEntries(gotBox.Entries, wantBox.Entries) {
		t.Fatalf("parseMailbox(%q):\n got %#v\nwant %#v", want, *gotBox, wantBox)
	}
	again, err := marshalMailbox(gotBox)
	if err != nil {
		t.Fatal(err)
	}
	if wantAgain, _ := json.Marshal(&wantBox); !bytes.Equal(plaintext(again), wantAgain) {
		t.Fatalf("re-encoded mailbox:\n got %q\nwant %q", again, wantAgain)
	}
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
	if _, err := parseMailbox([]byte(`{"next_id":2,"entries":[` + entry + `]}`)); err != nil {
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
		if _, err := parseMailbox([]byte(`{"next_id":2,"entries":[` + bad + `]}`)); err == nil {
			t.Errorf("parseMailbox accepted non-canonical entry %s", bad)
		}
	}
}

// bigMailbox builds a 200-entry mailbox like the ones deliveries build:
// dates from mail headers and no spam filter. With escapes, Message-IDs
// carry their usual angle brackets and every tenth subject needs
// escapes too. It reports how many entries hold an escaped string.
func bigMailbox(escapes bool) (box *mailbox, escaped int) {
	box = &mailbox{NextID: 1}
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
// encoder allocates its one presized buffer. Without escapes the parser
// allocates the mailbox and its entry slice, whatever the entry count;
// strings alias the input. Escaped strings share one doubling buffer, so with
// escapes it stays within the bound of three plus one per entry holding
// an escaped string. (A rules list, written only with a spam filter, is
// one more slice per entry.)
func TestMailboxCodecAllocs(t *testing.T) {
	for _, escapes := range []bool{false, true} {
		box, escaped := bigMailbox(escapes)
		buf, err := marshalMailbox(box)
		if err != nil {
			t.Fatal(err)
		}
		if spare := cap(buf) - len(buf); spare < envelope.Overhead {
			t.Errorf("mailbox encoded with %d bytes spare, want at least the %d-byte GCM tag", spare, envelope.Overhead)
		}
		pt := plaintext(buf)
		enc := testing.AllocsPerRun(20, func() {
			if _, err := marshalMailbox(box); err != nil {
				t.Fatal(err)
			}
		})
		if enc != 1 {
			t.Errorf("encoding a %d-entry mailbox: %v allocs, want exactly 1", len(box.Entries), enc)
		}
		dec := testing.AllocsPerRun(20, func() {
			if _, err := parseMailbox(pt); err != nil {
				t.Fatal(err)
			}
		})
		switch {
		case !escapes && dec != 2:
			t.Errorf("decoding a %d-entry mailbox without escapes: %v allocs, want exactly 2", len(box.Entries), dec)
		case escapes && dec > float64(3+escaped):
			t.Errorf("decoding a %d-entry mailbox with %d escaped entries: %v allocs, want at most %d", len(box.Entries), escaped, dec, 3+escaped)
		}
		t.Logf("%d-entry mailbox, %d bytes (%d escaped entries): encode %v allocs, decode %v allocs", len(box.Entries), len(pt), escaped, enc, dec)
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
	raw := "From: carol@remote.net\r\nSubject: lost?\r\n\r\nhello\r\n"
	ctx := &sim.Context{App: "email", Cursor: sim.NewCursor(cloud.Clock.Now())}
	if err := cloud.SES.Deliver(ctx, "carol@remote.net", "alice@"+MailDomain, []byte(raw)); err == nil {
		t.Fatal("delivery succeeded although the mailbox index could not be read")
	}
	if err := cloud.IAM.PutRole(&orig); err != nil {
		t.Fatal(err)
	}

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
