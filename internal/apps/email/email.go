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
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/mail"
	"strings"
	"time"

	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/s3"
	"repro/internal/core"
	"repro/internal/crypto/envelope"
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

// mailbox is the sealed mailbox metadata document.
type mailbox struct {
	NextID  int          `json:"next_id"`
	Entries []IndexEntry `json:"entries"`
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

func (h *mailHandler) key() ([]byte, error) {
	wrapped, err := hex.DecodeString(h.env.Config(core.ConfigWrappedKey))
	if err != nil {
		return nil, fmt.Errorf("email: bad wrapped key config: %w", err)
	}
	return h.env.DataKey(wrapped)
}

func (h *mailHandler) bucket() string { return h.env.Config(core.ConfigBucket) }

// loadBox fetches and opens the mailbox index. Only a missing object
// means a new, empty mailbox; any other read failure is returned, since
// saving an empty index over an unreadable one would lose every entry.
func (h *mailHandler) loadBox(key []byte) (*mailbox, error) {
	obj, err := h.env.S3().Get(h.env.Ctx(), h.bucket(), "box")
	if errors.Is(err, s3.ErrNoSuchKey) {
		return &mailbox{NextID: 1}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("email: reading mailbox: %w", err)
	}
	pt, err := envelope.Open(key, obj.Data, []byte("box"))
	if err != nil {
		return nil, fmt.Errorf("email: opening mailbox: %w", err)
	}
	box, err := parseMailbox(pt)
	if err != nil {
		return nil, fmt.Errorf("email: parsing mailbox: %w", err)
	}
	return box, nil
}

func (h *mailHandler) saveBox(key []byte, box *mailbox) error {
	buf, err := marshalMailbox(box)
	if err != nil {
		return err
	}
	sealed, err := envelope.SealInPlace(key, buf, []byte("box"))
	if err != nil {
		return err
	}
	return h.env.S3().Put(h.env.Ctx(), h.bucket(), "box", sealed)
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

	key, err := h.key()
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	box, err := h.loadBox(key)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	// Upstream mail systems redeliver: dedup by Message-ID so a
	// retried SES delivery stores exactly one copy.
	if msgID != "" {
		for _, e := range box.Entries {
			if e.MsgID == msgID {
				return lambda.Response{Status: 200,
					Body:  []byte(fmt.Sprintf("%d", e.ID)),
					Attrs: map[string]string{"X-DIY-Duplicate": "1"}}, nil
			}
		}
	}
	id := box.NextID
	box.NextID++
	box.Entries = append(box.Entries, IndexEntry{
		ID: id, MsgID: msgID, From: from, Subject: subject, Date: date,
		Spam: isSpam, Score: score, Rules: rules, Size: len(ev.Body),
	})

	msgKey := fmt.Sprintf("mail/%06d", id)
	var sealed []byte
	if h.app.RecipientPub != nil {
		sealed, err = sealedbox.Seal(*h.app.RecipientPub, ev.Body, []byte(msgKey))
	} else {
		sealed, err = envelope.Seal(key, ev.Body, []byte(msgKey))
	}
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	if err := h.env.S3().Put(h.env.Ctx(), h.bucket(), msgKey, sealed); err != nil {
		return lambda.Response{Status: 500}, err
	}
	if err := h.saveBox(key, box); err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 200, Body: []byte(fmt.Sprintf("%d", id))}, nil
}

func (h *mailHandler) list() (lambda.Response, error) {
	key, err := h.key()
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	box, err := h.loadBox(key)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	h.env.Compute(3 * time.Millisecond)
	out, err := marshalIndexEntries(box.Entries)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 200, Body: out}, nil
}

func (h *mailHandler) fetch(idStr string) (lambda.Response, error) {
	id, ok := parseID(idStr)
	if !ok {
		return lambda.Response{Status: 400, Body: []byte("bad id")}, nil
	}
	key, err := h.key()
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	msgKey := fmt.Sprintf("mail/%06d", id)
	obj, err := h.env.S3().Get(h.env.Ctx(), h.bucket(), msgKey)
	if err != nil {
		return lambda.Response{Status: 404, Body: []byte("no such message")}, nil
	}
	h.env.Compute(5 * time.Millisecond)
	if h.app.RecipientPub != nil {
		// PGP mode: the function cannot open the body; the sealed box
		// goes to the client as-is and is opened on the device.
		return lambda.Response{Status: 200, Body: obj.Data,
			Attrs: map[string]string{"X-DIY-Sealed": "box"}}, nil
	}
	pt, err := envelope.Open(key, obj.Data, []byte(msgKey))
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 200, Body: pt}, nil
}

func (h *mailHandler) delete(idStr string) (lambda.Response, error) {
	id, ok := parseID(idStr)
	if !ok {
		return lambda.Response{Status: 400, Body: []byte("bad id")}, nil
	}
	key, err := h.key()
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	box, err := h.loadBox(key)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	kept := box.Entries[:0]
	for _, e := range box.Entries {
		if e.ID != id {
			kept = append(kept, e)
		}
	}
	box.Entries = kept
	if err := h.env.S3().Delete(h.env.Ctx(), h.bucket(), fmt.Sprintf("mail/%06d", id)); err != nil {
		return lambda.Response{Status: 500}, err
	}
	if err := h.saveBox(key, box); err != nil {
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
	key, err := h.key()
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	msgKey := fmt.Sprintf("mail/%06d", id)
	obj, err := h.env.S3().Get(h.env.Ctx(), h.bucket(), msgKey)
	if err != nil {
		return lambda.Response{Status: 404, Body: []byte("no such message")}, nil
	}
	pt, err := envelope.Open(key, obj.Data, []byte(msgKey))
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	box, err := h.loadBox(key)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	var entry *IndexEntry
	for i := range box.Entries {
		if box.Entries[i].ID == id {
			entry = &box.Entries[i]
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
	if err := h.saveBox(key, box); err != nil {
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
