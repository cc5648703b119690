package xmpp

// IsZero reports whether the JID is empty.
func (j JID) IsZero() bool { return j == JID{} }
