package chat

import (
	"strings"

	"repro/internal/canonjson"
	"repro/internal/crypto/envelope"
)

// The room document and its archived chunks are rewritten on every
// send, so they have hand-written codecs instead of encoding/json. The
// encoders write exactly json.Marshal's bytes for the same value, so
// sealed sizes, transfer bills and goldens are those of encoding/json;
// the parsers accept only those bytes (everything they read was sealed
// under the envelope AEAD) and return what json.Unmarshal would: null
// is a nil slice, [] an empty one, an absent last_id a nil map.
//
// Both encoders write behind envelope.Header reserved bytes, into one
// buffer sized up front with room for the GCM tag, so
// envelope.SealInPlace seals the document where it was encoded.

// marshalRoomDoc encodes doc as json.Marshal(doc) would, behind the
// reserved envelope header.
func marshalRoomDoc(doc *roomDoc) []byte {
	n := roomDocLen(doc)
	b := envelope.NewBuffer(n + canonjson.Headroom(n))
	b = append(b, `{"chunks":`...)
	b = canonjson.AppendInt(b, doc.Chunks)
	b = append(b, `,"messages":`...)
	b = canonjson.AppendInt(b, doc.Messages)
	b = append(b, `,"members":`...)
	b = canonjson.AppendStrings(b, doc.Members)
	b = append(b, `,"present":`...)
	b = canonjson.AppendStrings(b, doc.Present)
	b = append(b, `,"entries":`...)
	b = appendEntries(b, doc.Entries)
	if len(doc.LastID) > 0 {
		var stack [32]string
		b = append(b, `,"last_id":{`...)
		for i, k := range canonjson.SortedKeys(stack[:0], doc.LastID) {
			if i > 0 {
				b = append(b, ',')
			}
			b = canonjson.AppendString(b, k)
			b = append(b, ':')
			b = canonjson.AppendString(b, doc.LastID[k])
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// marshalEntries encodes an archived chunk as json.Marshal(entries)
// would, behind the reserved envelope header.
func marshalEntries(entries []historyEntry) []byte {
	n := entriesLen(entries)
	return appendEntries(envelope.NewBuffer(n+canonjson.Headroom(n)), entries)
}

func appendEntries(b []byte, entries []historyEntry) []byte {
	if entries == nil {
		return append(b, "null"...)
	}
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

// roomDocLen bounds the encoded length of doc if no string needs
// escaping.
func roomDocLen(doc *roomDoc) int {
	n := len(`{"chunks":,"messages":,"members":,"present":,"entries":,"last_id":{}}`) +
		canonjson.IntLen(doc.Chunks) + canonjson.IntLen(doc.Messages) +
		stringsLen(doc.Members) + stringsLen(doc.Present) + entriesLen(doc.Entries)
	for k, v := range doc.LastID {
		n += len(k) + len(v) + len(`"":"",`)
	}
	return n
}

func entriesLen(entries []historyEntry) int {
	n := len("null")
	for i := range entries {
		e := &entries[i]
		n += len(`{"from":"","body":"","seq":},`) + len(e.From) + len(e.Body) + canonjson.IntLen(e.Seq)
	}
	return n
}

func stringsLen(list []string) int {
	n := len("null")
	for _, s := range list {
		n += len(s) + len(`"",`)
	}
	return n
}

// parseRoomDoc decodes bytes written by marshalRoomDoc.
func parseRoomDoc(pt []byte) (*roomDoc, error) {
	r := canonjson.NewReader(pt)
	doc := new(roomDoc)
	r.Expect(`{"chunks":`)
	doc.Chunks = r.Int()
	r.Expect(`,"messages":`)
	doc.Messages = r.Int()
	r.Expect(`,"members":`)
	doc.Members = r.Strs()
	r.Expect(`,"present":`)
	doc.Present = r.Strs()
	r.Expect(`,"entries":`)
	doc.Entries = readEntries(r)
	if r.Accept(`,"last_id":{`) {
		doc.LastID = make(map[string]string)
		var k string
		for first := true; r.More('}', first); first = false {
			k = r.Key(k, first)
			doc.LastID[k] = r.Str()
		}
		if len(doc.LastID) == 0 {
			r.Reject("empty last_id") // omitempty drops an empty map
		}
	}
	r.Expect("}")
	if err := r.Done(); err != nil {
		return nil, err
	}
	return doc, nil
}

// parseEntries decodes bytes written by marshalEntries.
func parseEntries(pt []byte) ([]historyEntry, error) {
	r := canonjson.NewReader(pt)
	entries := readEntries(r)
	if err := r.Done(); err != nil {
		return nil, err
	}
	return entries, nil
}

// entryStart opens every encoded entry and cannot occur anywhere else:
// inside strings the encoder always escapes '"'.
const entryStart = `{"from":`

func readEntries(r *canonjson.Reader) []historyEntry {
	if r.Accept("null") {
		return nil
	}
	r.Expect("[")
	if r.Err() != nil {
		return nil
	}
	entries := make([]historyEntry, 0, strings.Count(r.Rest(), entryStart))
	for first := true; r.More(']', first); first = false {
		var e historyEntry
		r.Expect(entryStart)
		e.From = r.Str()
		r.Expect(`,"body":`)
		e.Body = r.Str()
		r.Expect(`,"seq":`)
		e.Seq = r.Int()
		r.Expect("}")
		entries = append(entries, e)
	}
	return entries
}
