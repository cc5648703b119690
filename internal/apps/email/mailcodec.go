package email

import (
	"strconv"
	"strings"

	"repro/internal/canonjson"
	"repro/internal/crypto/envelope"
)

// The mailbox index is rewritten on every delivery, so it has a
// hand-written codec instead of encoding/json. The encoder writes
// exactly json.Marshal's bytes for the same value, so sealed sizes,
// transfer bills and goldens are those of encoding/json; the parser
// accepts only those bytes (everything it reads was sealed under the
// envelope AEAD) and returns what json.Unmarshal would: null is a nil
// slice and [] an empty one, and omitempty fields a canonical encoding
// would have dropped are rejected when present.

// marshalMailbox encodes box as json.Marshal(box) would, behind
// envelope.Header reserved bytes and with room for the GCM tag, so
// envelope.SealInPlace seals it where it was encoded.
func marshalMailbox(box *mailbox) ([]byte, error) {
	n := len(`{"next_id":,"entries":}`) + 20 + indexEntriesLen(box.Entries)
	b := envelope.NewBuffer(n + canonjson.Headroom(n))
	b = append(b, `{"next_id":`...)
	b = canonjson.AppendInt(b, box.NextID)
	b = append(b, `,"entries":`...)
	b, err := appendIndexEntries(b, box.Entries)
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// marshalIndexEntries encodes a list response as
// json.Marshal(entries) would.
func marshalIndexEntries(entries []IndexEntry) ([]byte, error) {
	n := indexEntriesLen(entries)
	return appendIndexEntries(make([]byte, 0, n+canonjson.Headroom(n)), entries)
}

func appendIndexEntries(b []byte, entries []IndexEntry) ([]byte, error) {
	if entries == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i := range entries {
		e := &entries[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = canonjson.AppendInt(b, e.ID)
		if e.MsgID != "" {
			b = append(b, `,"msg_id":`...)
			b = canonjson.AppendString(b, e.MsgID)
		}
		b = append(b, `,"from":`...)
		b = canonjson.AppendString(b, e.From)
		b = append(b, `,"subject":`...)
		b = canonjson.AppendString(b, e.Subject)
		b = append(b, `,"date":`...)
		var err error
		if b, err = canonjson.AppendTime(b, e.Date); err != nil {
			return nil, err
		}
		b = append(b, `,"spam":`...)
		b = strconv.AppendBool(b, e.Spam)
		if e.Score != 0 {
			b = append(b, `,"score":`...)
			if b, err = canonjson.AppendFloat(b, e.Score); err != nil {
				return nil, err
			}
		}
		if len(e.Rules) > 0 {
			b = append(b, `,"rules":`...)
			b = canonjson.AppendStrings(b, e.Rules)
		}
		b = append(b, `,"size":`...)
		b = canonjson.AppendInt(b, e.Size)
		b = append(b, '}')
	}
	return append(b, ']'), nil
}

// indexEntriesLen bounds the encoded length of entries if no string
// needs escaping.
func indexEntriesLen(entries []IndexEntry) int {
	n := len("null")
	for i := range entries {
		e := &entries[i]
		n += len(`{"id":,"from":"","subject":"","date":,"spam":false,"size":},`) +
			canonjson.IntLen(e.ID) + len(e.From) + len(e.Subject) +
			canonjson.MaxTimeLen + canonjson.IntLen(e.Size)
		if e.MsgID != "" {
			n += len(`,"msg_id":""`) + len(e.MsgID)
		}
		if e.Score != 0 {
			n += len(`,"score":`) + canonjson.MaxFloatLen
		}
		if len(e.Rules) > 0 {
			n += len(`,"rules":[]`)
			for _, r := range e.Rules {
				n += len(r) + len(`"",`)
			}
		}
	}
	return n
}

// parseMailbox decodes bytes written by marshalMailbox.
func parseMailbox(pt []byte) (*mailbox, error) {
	r := canonjson.NewReader(pt)
	box := new(mailbox)
	r.Expect(`{"next_id":`)
	box.NextID = r.Int()
	r.Expect(`,"entries":`)
	box.Entries = readIndexEntries(r)
	r.Expect("}")
	if err := r.Done(); err != nil {
		return nil, err
	}
	return box, nil
}

// entryStart opens every encoded index entry and cannot occur anywhere
// else: inside strings the encoder always escapes '"'.
const entryStart = `{"id":`

func readIndexEntries(r *canonjson.Reader) []IndexEntry {
	if r.Accept("null") {
		return nil
	}
	r.Expect("[")
	if r.Err() != nil {
		return nil
	}
	entries := make([]IndexEntry, 0, strings.Count(r.Rest(), entryStart))
	for first := true; r.More(']', first); first = false {
		var e IndexEntry
		r.Expect(entryStart)
		e.ID = r.Int()
		if r.Accept(`,"msg_id":`) {
			if e.MsgID = r.Str(); e.MsgID == "" {
				r.Reject("empty msg_id")
			}
		}
		r.Expect(`,"from":`)
		e.From = r.Str()
		r.Expect(`,"subject":`)
		e.Subject = r.Str()
		r.Expect(`,"date":`)
		e.Date = r.Time()
		r.Expect(`,"spam":`)
		e.Spam = r.Bool()
		if r.Accept(`,"score":`) {
			if e.Score = r.Float(); e.Score == 0 {
				r.Reject("zero score")
			}
		}
		if r.Accept(`,"rules":`) {
			if e.Rules = r.Strs(); len(e.Rules) == 0 {
				r.Reject("empty rules")
			}
		}
		r.Expect(`,"size":`)
		e.Size = r.Int()
		r.Expect("}")
		entries = append(entries, e)
	}
	return entries
}
