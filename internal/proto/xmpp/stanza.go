package xmpp

import (
	"errors"
	"fmt"
	"reflect"
)

// Stanza kinds.
const (
	KindMessage  = "message"
	KindPresence = "presence"
	KindIQ       = "iq"
)

// The xml struct tags below are the stanzas' schema, read by the tests'
// encoding/xml oracle; Encode and Decode implement them by hand (see
// codec.go). Each XMLName is an empty marker: its tag names the
// element, and encoding/xml stores a decoded name only in a field of
// its own Name type, so a decoded stanza equals encoding/xml's with ==.

// Message is a chat message stanza.
type Message struct {
	XMLName struct{} `xml:"message"`
	From    string   `xml:"from,attr,omitempty"`
	To      string   `xml:"to,attr,omitempty"`
	Type    string   `xml:"type,attr,omitempty"` // "chat", "groupchat"
	ID      string   `xml:"id,attr,omitempty"`
	Body    string   `xml:"body,omitempty"`
}

// Presence announces availability ("", "unavailable").
type Presence struct {
	XMLName struct{} `xml:"presence"`
	From    string   `xml:"from,attr,omitempty"`
	To      string   `xml:"to,attr,omitempty"`
	Type    string   `xml:"type,attr,omitempty"`
	Status  string   `xml:"status,omitempty"`
}

// IQ is an info/query stanza; the prototype uses it for session
// initiation and resource binding.
type IQ struct {
	XMLName struct{} `xml:"iq"`
	From    string   `xml:"from,attr,omitempty"`
	To      string   `xml:"to,attr,omitempty"`
	Type    string   `xml:"type,attr"` // "get", "set", "result", "error"
	ID      string   `xml:"id,attr"`
	Bind    *Bind    `xml:"bind,omitempty"`
	Session *Session `xml:"session,omitempty"`
	Error   *Error   `xml:"error,omitempty"`
}

// Bind is the resource-binding IQ payload.
type Bind struct {
	XMLName  struct{} `xml:"bind"`
	Resource string   `xml:"resource,omitempty"`
	JID      string   `xml:"jid,omitempty"`
}

// Session is the session-initiation IQ payload.
type Session struct {
	XMLName struct{} `xml:"session"`
}

// Error is a stanza error.
type Error struct {
	XMLName struct{} `xml:"error"`
	Type    string   `xml:"type,attr,omitempty"`
	Text    string   `xml:"text,omitempty"`
}

// ErrUnknownStanza reports an unrecognized element.
var ErrUnknownStanza = errors.New("xmpp: unknown stanza")

// Encode serializes a stanza (Message, Presence or IQ, or a pointer to
// one) to XML: exactly the bytes xml.Marshal writes for it, so a nil
// pointer encodes to nothing.
func Encode(stanza any) ([]byte, error) {
	switch st := stanza.(type) {
	case *Message:
		if st == nil {
			return nil, nil
		}
		return st.appendXML(make([]byte, 0, st.xmlLen())), nil
	case *Presence:
		if st == nil {
			return nil, nil
		}
		return st.appendXML(make([]byte, 0, st.xmlLen())), nil
	case *IQ:
		if st == nil {
			return nil, nil
		}
		return st.appendXML(make([]byte, 0, st.xmlLen())), nil
	case Message:
		return Encode(&st)
	case Presence:
		return Encode(&st)
	case IQ:
		return Encode(&st)
	default:
		// reflect.TypeOf rather than %T keeps the stanza off the heap.
		return nil, fmt.Errorf("%w: %v", ErrUnknownStanza, reflect.TypeOf(stanza))
	}
}

// Decode parses a single stanza, returning *Message, *Presence or *IQ.
// It accepts only the canonical bytes Encode writes — one element, no
// XML declaration or surrounding whitespace, double-quoted attributes
// in schema order, only Encode's escapes, no empty omitempty field —
// and returns what encoding/xml would decode from them. Anything else
// is an error; an element other than the three stanzas is
// ErrUnknownStanza. The stanza's strings share one copy of data, so the
// caller may reuse data afterwards.
func Decode(data []byte) (any, error) {
	r := reader{s: string(data)}
	name := r.root()
	var st any
	switch {
	case r.err != nil:
	case name == KindMessage:
		st = r.message()
	case name == KindPresence:
		st = r.presence()
	case name == KindIQ:
		st = r.iq()
	default:
		return nil, fmt.Errorf("%w: <%s>", ErrUnknownStanza, name)
	}
	if r.err == nil && r.i != len(r.s) {
		r.fail("trailing bytes")
	}
	if r.err != nil {
		return nil, r.err
	}
	return st, nil
}

func (m *Message) xmlLen() int {
	return len("<message></message>") +
		attrLen(` from="`, m.From) + attrLen(` to="`, m.To) + attrLen(` type="`, m.Type) + attrLen(` id="`, m.ID) +
		elemLen("<body>", m.Body, "</body>")
}

func (m *Message) appendXML(b []byte) []byte {
	b = append(b, "<message"...)
	b = appendAttr(b, ` from="`, m.From)
	b = appendAttr(b, ` to="`, m.To)
	b = appendAttr(b, ` type="`, m.Type)
	b = appendAttr(b, ` id="`, m.ID)
	b = append(b, '>')
	b = appendElem(b, "<body>", m.Body, "</body>")
	return append(b, "</message>"...)
}

func (r *reader) message() *Message {
	m := &Message{
		From: r.attr(` from="`),
		To:   r.attr(` to="`),
		Type: r.attr(` type="`),
		ID:   r.attr(` id="`),
	}
	r.expect(">")
	m.Body = r.elem("<body>", "</body>")
	r.expect("</message>")
	return m
}

func (p *Presence) xmlLen() int {
	return len("<presence></presence>") +
		attrLen(` from="`, p.From) + attrLen(` to="`, p.To) + attrLen(` type="`, p.Type) +
		elemLen("<status>", p.Status, "</status>")
}

func (p *Presence) appendXML(b []byte) []byte {
	b = append(b, "<presence"...)
	b = appendAttr(b, ` from="`, p.From)
	b = appendAttr(b, ` to="`, p.To)
	b = appendAttr(b, ` type="`, p.Type)
	b = append(b, '>')
	b = appendElem(b, "<status>", p.Status, "</status>")
	return append(b, "</presence>"...)
}

func (r *reader) presence() *Presence {
	p := &Presence{
		From: r.attr(` from="`),
		To:   r.attr(` to="`),
		Type: r.attr(` type="`),
	}
	r.expect(">")
	p.Status = r.elem("<status>", "</status>")
	r.expect("</presence>")
	return p
}

func (iq *IQ) xmlLen() int {
	n := len(`<iq type="" id=""></iq>`) + escapedLen(iq.Type) + escapedLen(iq.ID) +
		attrLen(` from="`, iq.From) + attrLen(` to="`, iq.To)
	if iq.Bind != nil {
		n += len("<bind></bind>") + elemLen("<resource>", iq.Bind.Resource, "</resource>") + elemLen("<jid>", iq.Bind.JID, "</jid>")
	}
	if iq.Session != nil {
		n += len("<session></session>")
	}
	if iq.Error != nil {
		n += len("<error></error>") + attrLen(` type="`, iq.Error.Type) + elemLen("<text>", iq.Error.Text, "</text>")
	}
	return n
}

// appendXML writes type and id even when empty: their tags have no
// omitempty. Session, with no content, is written as a start and end
// tag pair, as encoding/xml writes every element.
func (iq *IQ) appendXML(b []byte) []byte {
	b = append(b, "<iq"...)
	b = appendAttr(b, ` from="`, iq.From)
	b = appendAttr(b, ` to="`, iq.To)
	b = append(b, ` type="`...)
	b = appendEscaped(b, iq.Type)
	b = append(b, `" id="`...)
	b = appendEscaped(b, iq.ID)
	b = append(b, `">`...)
	if bind := iq.Bind; bind != nil {
		b = append(b, "<bind>"...)
		b = appendElem(b, "<resource>", bind.Resource, "</resource>")
		b = appendElem(b, "<jid>", bind.JID, "</jid>")
		b = append(b, "</bind>"...)
	}
	if iq.Session != nil {
		b = append(b, "<session></session>"...)
	}
	if e := iq.Error; e != nil {
		b = append(b, "<error"...)
		b = appendAttr(b, ` type="`, e.Type)
		b = append(b, '>')
		b = appendElem(b, "<text>", e.Text, "</text>")
		b = append(b, "</error>"...)
	}
	return append(b, "</iq>"...)
}

func (r *reader) iq() *IQ {
	iq := &IQ{
		From: r.attr(` from="`),
		To:   r.attr(` to="`),
	}
	r.expect(` type="`)
	iq.Type = r.text('"')
	r.expect(`" id="`)
	iq.ID = r.text('"')
	r.expect(`">`)
	if r.accept("<bind>") {
		iq.Bind = &Bind{
			Resource: r.elem("<resource>", "</resource>"),
			JID:      r.elem("<jid>", "</jid>"),
		}
		r.expect("</bind>")
	}
	if r.accept("<session></session>") {
		iq.Session = &Session{}
	}
	if r.accept("<error") {
		iq.Error = &Error{Type: r.attr(` type="`)}
		r.expect(">")
		iq.Error.Text = r.elem("<text>", "</text>")
		r.expect("</error>")
	}
	r.expect("</iq>")
	return iq
}
