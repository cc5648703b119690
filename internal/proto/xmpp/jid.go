// Package xmpp implements the subset of the XMPP protocol the paper's
// chat prototype uses: JIDs and the message/presence/iq stanza types,
// one stanza per request of the HTTPS tunnel the prototype adopts
// because "Lambda only supports HTTP(S)-based endpoints". The stanza
// codec is hand-written and byte-identical to encoding/xml (codec.go).
package xmpp

import (
	"errors"
	"fmt"
	"strings"
)

// JID is an XMPP address: local@domain/resource.
type JID struct {
	Local    string
	Domain   string
	Resource string
}

// ErrBadJID reports an unparsable address.
var ErrBadJID = errors.New("xmpp: malformed JID")

// ParseJID parses "local@domain/resource". The resource is optional;
// the local part is optional for domain-only addresses.
func ParseJID(s string) (JID, error) {
	var j JID
	if s == "" {
		return j, fmt.Errorf("%w: empty", ErrBadJID)
	}
	rest := s
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		j.Resource = rest[i+1:]
		rest = rest[:i]
		if j.Resource == "" {
			return JID{}, fmt.Errorf("%w: empty resource in %q", ErrBadJID, s)
		}
	}
	if i := strings.IndexByte(rest, '@'); i >= 0 {
		j.Local = rest[:i]
		rest = rest[i+1:]
		if j.Local == "" {
			return JID{}, fmt.Errorf("%w: empty local part in %q", ErrBadJID, s)
		}
	}
	if rest == "" || strings.ContainsAny(rest, "@/") {
		return JID{}, fmt.Errorf("%w: bad domain in %q", ErrBadJID, s)
	}
	j.Domain = rest
	return j, nil
}

// String formats the JID canonically.
func (j JID) String() string {
	var sb strings.Builder
	sb.Grow(len(j.Local) + len("@") + len(j.Domain) + len("/") + len(j.Resource))
	if j.Local != "" {
		sb.WriteString(j.Local)
		sb.WriteByte('@')
	}
	sb.WriteString(j.Domain)
	if j.Resource != "" {
		sb.WriteByte('/')
		sb.WriteString(j.Resource)
	}
	return sb.String()
}

// Bare returns the JID without its resource.
func (j JID) Bare() JID { return JID{Local: j.Local, Domain: j.Domain} }
