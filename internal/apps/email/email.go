// Package email implements the paper's DIY email service (§6.1): "A
// serverless SMTP service can forward outgoing mail and encrypt and
// store incoming mail into a storage provider like Amazon S3. While
// Lambda currently does not support SMTP endpoints, we can use
// Amazon's SES service to provide the send service, and use Lambda as
// a hook to encrypt email (e.g., using PGP encryption) before storing
// it. ... DIY could also support features like spam detection using
// widely used open source detectors such as SpamAssassin."
//
// Inbound mail arrives via the SES trigger (or the real-TCP SMTP
// server in examples/email, which feeds the same handler), is scored
// by the spam filter, envelope-encrypted, and stored in the user's
// bucket. Clients list, fetch, send and delete over the HTTPS
// endpoint.
package email

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/mail"
	"strings"
	"time"

	"repro/internal/canonjson"
	"repro/internal/cloudsim/lambda"
	"repro/internal/core"
	"repro/internal/crypto/sealedbox"
	"repro/internal/spam"
)

// MailDomain is the inbound domain for DIY mailboxes.
const MailDomain = "diy-mail.example"

// baseMemory approximates the mail function's working set.
const baseMemory = 40 << 20

// App is the DIY email application.
type App struct {
	// SpamFilter, if non-nil, scores inbound mail; spam is tagged in
	// the index rather than dropped.
	SpamFilter *spam.Filter
	// RecipientPub, if non-nil, enables PGP mode: message bodies are
	// sealed to this public key instead of the deployment data key, so
	// only the user's devices — not KMS, not the function on later
	// invocations — can read stored mail. The index metadata stays
	// under the data key so list/delete still work server-side.
	RecipientPub *sealedbox.PublicKey
}

// Name implements core.App.
func (App) Name() string { return "email" }

// Spec implements core.App: the Table 2 email row — a 128 MB function,
// SES inbound trigger for <user>@diy-mail.example, HTTPS client
// endpoint.
func (a App) Spec() core.AppSpec {
	return core.AppSpec{
		MemoryMB:      128,
		Timeout:       30 * time.Second,
		Endpoint:      "/mail",
		InboundAddrs:  []string{"%USER%@" + MailDomain},
		CacheDataKeys: true,
		EstCompute:    500 * time.Millisecond, // Table 2 row 2
		Code:          []byte("diy-email:ses-hook:v1"),
	}
}

// IndexEntry is one mailbox index record (stored sealed).
type IndexEntry struct {
	ID      int       `json:"id"`
	MsgID   string    `json:"msg_id,omitempty"` // RFC 5322 Message-ID, for dedup
	From    string    `json:"from"`
	Subject string    `json:"subject"`
	Date    time.Time `json:"date"`
	Spam    bool      `json:"spam"`
	Score   float64   `json:"score,omitempty"`
	Rules   []string  `json:"rules,omitempty"`
	Size    int       `json:"size"`
}

// mailbox is the sealed mailbox metadata document, {"next_id":…,
// "entries":[…]} (mailcodec.go).
type mailbox struct {
	NextID int
	// Entries is the index, an array of IndexEntry kept encoded.
	Entries canonjson.Kept
	// dup is the ID of the first entry carrying the Message-ID loadBox
	// looked for, if found.
	dup   int
	found bool
}

// SendRequest is the client "send" payload.
type SendRequest struct {
	To  []string `json:"to"`
	Raw []byte   `json:"raw"` // RFC 822 message bytes
}

// Handler implements core.App. Operations:
//
//	SES trigger / op "inbound": store one inbound message
//	op "list":   return the decrypted index as JSON
//	op "fetch":  body = id; return the raw message
//	op "delete": body = id; remove message and index entry
//	op "send":   body = SendRequest JSON; relay via the send service
//	op "markspam", "markham": body = id; train the filter on the
//	             message and correct its index tag (unavailable in PGP
//	             mode, where the function cannot read stored bodies)
func (a App) Handler() lambda.Handler {
	return func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
		h := &mailHandler{env: env, app: a}
		switch {
		case ev.Source == "ses" || ev.Op == "inbound":
			return h.inbound(ev)
		case ev.Op == "list":
			return h.list()
		case ev.Op == "fetch":
			return h.fetch(strings.TrimSpace(string(ev.Body)))
		case ev.Op == "delete":
			return h.delete(strings.TrimSpace(string(ev.Body)))
		case ev.Op == "send":
			return h.send(ev.Body)
		case ev.Op == "markspam":
			return h.mark(strings.TrimSpace(string(ev.Body)), true)
		case ev.Op == "markham":
			return h.mark(strings.TrimSpace(string(ev.Body)), false)
		default:
			return lambda.Response{Status: 400, Body: []byte("unknown op")}, nil
		}
	}
}

type mailHandler struct {
	env *lambda.Env
	app App
}

// loadBox opens the mailbox index, looking for the entry that carries
// msgID if it is set; a missing index is a new, empty mailbox.
func loadBox(v *core.Vault, msgID string) (*mailbox, error) {
	pt, found, err := v.Load("box")
	if err != nil {
		return nil, err
	}
	if !found {
		return &mailbox{NextID: 1}, nil
	}
	box, err := parseMailbox(pt, msgID)
	if err != nil {
		return nil, fmt.Errorf("email: parsing mailbox: %w", err)
	}
	return box, nil
}

// saveBox writes the mailbox with index kept and the entries added
// after it (see marshalMailbox).
func saveBox(v *core.Vault, next int, index canonjson.Kept, added []IndexEntry) error {
	buf, err := marshalMailbox(next, index, added)
	if err != nil {
		return err
	}
	return v.Save("box", buf)
}

// inbound encrypts and stores one arriving message — the paper's
// "Lambda as a hook to encrypt email before storing it".
func (h *mailHandler) inbound(ev lambda.Event) (lambda.Response, error) {
	h.env.RecordMemory(baseMemory + int64(2*len(ev.Body)))
	h.env.Compute(10 * time.Millisecond) // parse + PGP-style encrypt

	from := ev.Attrs["from"]
	subject := ""
	msgID := ""
	date := time.Time{}
	if msg, err := mail.ReadMessage(strings.NewReader(string(ev.Body))); err == nil {
		subject = msg.Header.Get("Subject")
		msgID = msg.Header.Get("Message-Id")
		if from == "" {
			from = msg.Header.Get("From")
		}
		if d, err := msg.Header.Date(); err == nil {
			date = d
		}
	}
	if date.IsZero() {
		date = h.env.Ctx().Cursor.Now()
	}

	var isSpam bool
	var score float64
	var rules []string
	if h.app.SpamFilter != nil {
		m := &spam.Message{From: from, Subject: subject, Body: string(ev.Body)}
		score, rules = h.app.SpamFilter.Score(m)
		isSpam = score >= h.app.SpamFilter.Threshold
		h.env.Compute(5 * time.Millisecond)
	}

	v, err := core.OpenVault(h.env)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	// Upstream mail systems redeliver: dedup by Message-ID so a
	// retried SES delivery stores exactly one copy.
	box, err := loadBox(v, msgID)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	if box.found {
		return lambda.Response{Status: 200,
			Body:  []byte(fmt.Sprintf("%d", box.dup)),
			Attrs: map[string]string{"X-DIY-Duplicate": "1"}}, nil
	}
	id := box.NextID
	added := []IndexEntry{{
		ID: id, MsgID: msgID, From: from, Subject: subject, Date: date,
		Spam: isSpam, Score: score, Rules: rules, Size: len(ev.Body),
	}}

	msgKey := fmt.Sprintf("mail/%06d", id)
	if h.app.RecipientPub != nil {
		var sealed []byte
		if sealed, err = sealedbox.Seal(*h.app.RecipientPub, ev.Body, []byte(msgKey)); err == nil {
			err = h.env.S3().Put(h.env.Ctx(), v.Bucket(), msgKey, sealed)
		}
	} else {
		err = v.Put(msgKey, ev.Body)
	}
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	if err := saveBox(v, id+1, box.Entries, added); err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 200, Body: []byte(fmt.Sprintf("%d", id))}, nil
}

func (h *mailHandler) list() (lambda.Response, error) {
	v, err := core.OpenVault(h.env)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	box, err := loadBox(v, "")
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	h.env.Compute(3 * time.Millisecond)
	out := box.Entries.Append(make([]byte, 0, len(box.Entries.Bytes())+len("null")))
	return lambda.Response{Status: 200, Body: out}, nil
}

func (h *mailHandler) fetch(idStr string) (lambda.Response, error) {
	id, ok := parseID(idStr)
	if !ok {
		return lambda.Response{Status: 400, Body: []byte("bad id")}, nil
	}
	// PGP mode: the body is sealed to the user's key, which the function
	// does not hold, so it reads the sealed box as stored, without
	// unwrapping the data key, and the client opens it on the device.
	pgp := h.app.RecipientPub != nil
	read := func(name string) ([]byte, bool, error) { return core.Get(h.env, name) }
	if !pgp {
		v, err := core.OpenVault(h.env)
		if err != nil {
			return lambda.Response{Status: 500}, err
		}
		read = v.Load
	}
	body, found, err := read(fmt.Sprintf("mail/%06d", id))
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	if !found {
		return lambda.Response{Status: 404, Body: []byte("no such message")}, nil
	}
	h.env.Compute(5 * time.Millisecond)
	if pgp {
		return lambda.Response{Status: 200, Body: body,
			Attrs: map[string]string{"X-DIY-Sealed": "box"}}, nil
	}
	// The opened body is zeroed when the invocation ends; the response
	// outlives it.
	return lambda.Response{Status: 200, Body: bytes.Clone(body)}, nil
}

func (h *mailHandler) delete(idStr string) (lambda.Response, error) {
	id, ok := parseID(idStr)
	if !ok {
		return lambda.Response{Status: 400, Body: []byte("bad id")}, nil
	}
	v, err := core.OpenVault(h.env)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	box, err := loadBox(v, "")
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	entries, err := parseIndexEntries(box.Entries.Bytes())
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	kept := entries[:0]
	for _, e := range entries {
		if e.ID != id {
			kept = append(kept, e)
		}
	}
	if err := h.env.S3().Delete(h.env.Ctx(), v.Bucket(), fmt.Sprintf("mail/%06d", id)); err != nil {
		return lambda.Response{Status: 500}, err
	}
	if err := saveBox(v, box.NextID, canonjson.Kept{}, kept); err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 200}, nil
}

func (h *mailHandler) send(body []byte) (lambda.Response, error) {
	var req SendRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return lambda.Response{Status: 400, Body: []byte("bad send request")}, nil
	}
	if len(req.To) == 0 {
		return lambda.Response{Status: 400, Body: []byte("no recipients")}, nil
	}
	sender := h.env.Config(core.ConfigUser) + "@" + MailDomain
	h.env.Compute(5 * time.Millisecond)
	svc := h.env.Email()
	if svc == nil {
		return lambda.Response{Status: 500, Body: []byte("no send service wired")}, nil
	}
	if err := svc.Send(h.env.Ctx(), sender, req.To, req.Raw); err != nil {
		return lambda.Response{Status: 502, Body: []byte(err.Error())}, nil
	}
	return lambda.Response{Status: 200}, nil
}

// mark trains the spam filter on a stored message and corrects its
// index tag — the feedback loop real mail services run. In PGP mode
// stored bodies are opaque to the function, so server-side training is
// impossible: the privacy/functionality tradeoff made concrete.
func (h *mailHandler) mark(idStr string, isSpam bool) (lambda.Response, error) {
	if h.app.SpamFilter == nil {
		return lambda.Response{Status: 409, Body: []byte("no spam filter configured")}, nil
	}
	if h.app.RecipientPub != nil {
		return lambda.Response{Status: 409,
			Body: []byte("PGP mode: the server cannot read bodies to train on")}, nil
	}
	id, ok := parseID(idStr)
	if !ok {
		return lambda.Response{Status: 400, Body: []byte("bad id")}, nil
	}
	v, err := core.OpenVault(h.env)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	pt, found, err := v.Load(fmt.Sprintf("mail/%06d", id))
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	if !found {
		return lambda.Response{Status: 404, Body: []byte("no such message")}, nil
	}
	box, err := loadBox(v, "")
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	entries, err := parseIndexEntries(box.Entries.Bytes())
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	var entry *IndexEntry
	for i := range entries {
		if entries[i].ID == id {
			entry = &entries[i]
		}
	}
	if entry == nil {
		return lambda.Response{Status: 404, Body: []byte("no such message")}, nil
	}
	h.app.SpamFilter.Train(&spam.Message{
		From: entry.From, Subject: entry.Subject, Body: string(pt),
	}, isSpam)
	entry.Spam = isSpam
	h.env.Compute(6 * time.Millisecond)
	if err := saveBox(v, box.NextID, canonjson.Kept{}, entries); err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 200}, nil
}

func parseID(s string) (int, bool) {
	var id int
	if _, err := fmt.Sscanf(s, "%d", &id); err != nil || id <= 0 {
		return 0, false
	}
	return id, true
}
