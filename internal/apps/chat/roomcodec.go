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
// The live tail stays encoded. parseRoomDoc decodes the header and
// only scans the entries array: it validates it exactly as parseEntries
// would, sizes it, and keeps its bytes (a canonjson.Kept). A send
// splices its one new entry in before the closing bracket, so the old
// entries are copied, never decoded or re-escaped; only history and
// search decode them, with parseEntries. Because the scan accepts only
// the encoder's bytes, the copy is what the encoder would write for the
// decoded entries (Kept.Append says how), and the splice writes
// json.Marshal's bytes for the appended list.
//
// The kept bytes alias the opened plaintext, which lives in the
// container's arena until the invocation ends. Nothing writes to them:
// they are only ever copied into a fresh buffer (the next room
// document, or an archived chunk), or read by parseEntries.
//
// Both encoders write behind envelope.Header reserved bytes, into one
// buffer sized up front with room for the GCM tag, so
// envelope.SealInPlace seals the document where it was encoded.

// entryOverhead is what the tail accounting charges each entry beyond
// its sender and body: the chunk limit counts decoded bytes, not the
// encoded ones.
const entryOverhead = 24

// marshalRoomDoc encodes doc, with doc.add spliced onto its tail, as
// json.Marshal would encode the decoded document, behind the reserved
// envelope header.
func marshalRoomDoc(doc *roomDoc) []byte {
	n := len(`{"chunks":,"messages":,"members":,"present":,"entries":,"last_id":{}}`) +
		canonjson.IntLen(doc.Chunks) + canonjson.IntLen(doc.Messages) +
		stringsLen(doc.Members) + stringsLen(doc.Present) + tailLen(doc)
	for k, v := range doc.LastID {
		n += len(k) + len(v) + len(`"":"",`)
	}
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
	b = appendTail(b, doc)
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

// marshalTail encodes doc's live tail, doc.add spliced on, as an
// archived chunk, behind the reserved envelope header.
func marshalTail(doc *roomDoc) []byte {
	n := tailLen(doc)
	return appendTail(envelope.NewBuffer(n+canonjson.Headroom(n)), doc)
}

// appendTail appends doc.Entries with doc.add spliced in before the
// closing bracket.
func appendTail(b []byte, doc *roomDoc) []byte {
	if doc.add == nil {
		return doc.Entries.Append(b)
	}
	b = doc.Entries.AppendOpen(b)
	e := doc.add
	b = append(b, `{"from":`...)
	b = canonjson.AppendString(b, e.From)
	b = append(b, `,"body":`...)
	b = canonjson.AppendString(b, e.Body)
	b = append(b, `,"seq":`...)
	b = canonjson.AppendInt(b, e.Seq)
	return append(b, "}]"...)
}

// tailLen bounds the length appendTail writes for doc if the new
// entry's strings need no escaping.
func tailLen(doc *roomDoc) int {
	n := len("null") + len(doc.Entries.Bytes())
	if e := doc.add; e != nil {
		n += len(`[{"from":"","body":"","seq":},]`) + len(e.From) + len(e.Body) + canonjson.IntLen(e.Seq)
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

// parseRoomDoc decodes the header of bytes written by marshalRoomDoc
// and scans its entries, keeping them encoded.
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
	doc.Entries, doc.tailSize = scanEntries(r)
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

// parseEntries decodes an encoded entries array: an archived chunk, or
// a room document's live tail (nil for a null one).
func parseEntries(pt []byte) ([]historyEntry, error) {
	if pt == nil {
		return nil, nil
	}
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

// scanEntries reads the entries array at r, accepting exactly the
// bytes readEntries accepts but decoding nothing, and returns it kept,
// with its size as the tail accounting counts it.
func scanEntries(r *canonjson.Reader) (tail canonjson.Kept, size int) {
	tail = r.Keep(func() {
		r.Expect(entryStart)
		size += r.StrLen()
		r.Expect(`,"body":`)
		size += r.StrLen()
		r.Expect(`,"seq":`)
		r.Int()
		r.Expect("}")
		size += entryOverhead
	})
	return tail, size
}
