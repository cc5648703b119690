package email

import (
	"bytes"
	"strconv"
	"strings"
	"unicode/utf8"

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
//
// The index entries stay encoded. parseMailbox decodes next_id and only
// scans the entries array: it validates it exactly as parseIndexEntries
// would and keeps its bytes (a canonjson.Kept). A delivery splices its
// one new entry in before the closing bracket, and list copies the kept
// bytes, so neither decodes or re-escapes the old entries; only delete
// and the spam marks decode them, with parseIndexEntries, to change
// one. Because the scan accepts only the encoder's bytes, a copy is
// what the encoder would write for the decoded entries (Kept.Append
// says how).
//
// The kept bytes alias the opened plaintext. Nothing writes to them:
// they are only ever copied into a fresh buffer (the next index, or a
// list response), or read by parseIndexEntries.
//
// A delivery's Message-ID dedup runs inside the scan and compares
// bytes, not strings: the AppendString encoding of the new id against
// each entry's msg_id as canonjson.Reader.StrEncoded reads it, which is
// the encoding of the decoded msg_id. That is the comparison of decoded
// ids the codec used to make: decoded strings are valid UTF-8, on which
// AppendString is injective, so a valid id equals a stored one exactly
// when their encodings are equal. An id with invalid UTF-8 equals no
// decoded id (AppendString would write its invalid bytes as \ufffd,
// which decodes to a valid U+FFFD), so it is never a duplicate and is
// not looked for.

// marshalMailbox encodes the mailbox with index kept and the entries
// added after it, as json.Marshal would encode the decoded mailbox,
// behind envelope.Header reserved bytes and with room for the GCM tag,
// so envelope.SealInPlace seals it where it was encoded. With added nil
// the index is the kept one alone (null stays null); a delivery adds
// its one entry to the kept index, and the ops that change an entry
// pass every decoded entry as added to an empty (null) Kept.
func marshalMailbox(next int, index canonjson.Kept, added []IndexEntry) ([]byte, error) {
	n := len(`{"next_id":,"entries":null}`) + 20 + len(index.Bytes())
	for i := range added {
		n += indexEntryLen(&added[i])
	}
	b := envelope.NewBuffer(n + canonjson.Headroom(n))
	b = append(b, `{"next_id":`...)
	b = canonjson.AppendInt(b, next)
	b = append(b, `,"entries":`...)
	if added == nil {
		b = index.Append(b)
	} else {
		b = index.AppendOpen(b)
		for i := range added {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendIndexEntry(b, &added[i]); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	return append(b, '}'), nil
}

func appendIndexEntry(b []byte, e *IndexEntry) ([]byte, error) {
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
	return append(b, '}'), nil
}

// indexEntryLen bounds the encoded length of e, with a separating
// comma, if no string needs escaping.
func indexEntryLen(e *IndexEntry) int {
	n := len(`{"id":,"from":"","subject":"","date":,"spam":false,"size":},`) +
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
	return n
}

// parseMailbox decodes next_id from bytes written by marshalMailbox and
// keeps its index encoded. If msgID is set, it also looks for the first
// entry carrying that Message-ID.
func parseMailbox(pt []byte, msgID string) (*mailbox, error) {
	r := canonjson.NewReader(pt)
	box := new(mailbox)
	r.Expect(`{"next_id":`)
	box.NextID = r.Int()
	r.Expect(`,"entries":`)
	var enc []byte
	if msgID != "" && utf8.ValidString(msgID) {
		var stack [128]byte
		enc = canonjson.AppendString(stack[:0], msgID)
	}
	scanIndexEntries(r, box, enc)
	r.Expect("}")
	if err := r.Done(); err != nil {
		return nil, err
	}
	return box, nil
}

// parseIndexEntries decodes an encoded index array, nil for null.
func parseIndexEntries(span []byte) ([]IndexEntry, error) {
	if span == nil {
		return nil, nil
	}
	r := canonjson.NewReader(span)
	entries := readIndexEntries(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return entries, nil
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

// scanIndexEntries reads the index array at r, accepting exactly the
// bytes readIndexEntries accepts but decoding nothing, and keeps it as
// box.Entries. If msgID, the AppendString encoding of a Message-ID, is
// non-nil, box.dup is the ID of the first entry carrying it and
// box.found reports whether there is one.
func scanIndexEntries(r *canonjson.Reader, box *mailbox, msgID []byte) {
	box.Entries = r.Keep(func() {
		r.Expect(entryStart)
		id := r.Int()
		if r.Accept(`,"msg_id":`) {
			stored := r.StrEncoded()
			if len(stored) == len(`""`) {
				r.Reject("empty msg_id")
			}
			if msgID != nil && !box.found && bytes.Equal(stored, msgID) {
				box.dup, box.found = id, true
			}
		}
		r.Expect(`,"from":`)
		r.StrLen()
		r.Expect(`,"subject":`)
		r.StrLen()
		r.Expect(`,"date":`)
		r.Time()
		r.Expect(`,"spam":`)
		r.Bool()
		if r.Accept(`,"score":`) && r.Float() == 0 {
			r.Reject("zero score")
		}
		if r.Accept(`,"rules":`) {
			rules := 0
			if !r.Accept("null") {
				r.Expect("[")
				for first := true; r.More(']', first); first = false {
					r.StrLen()
					rules++
				}
			}
			if rules == 0 {
				r.Reject("empty rules")
			}
		}
		r.Expect(`,"size":`)
		r.Int()
		r.Expect("}")
	})
}
