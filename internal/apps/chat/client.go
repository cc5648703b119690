package chat

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/sim"
	"repro/internal/cloudsim/trace"
	"repro/internal/core"
	"repro/internal/crypto/envelope"
	"repro/internal/proto/xmpp"
)

// Client is one member's chat client. It tunnels XMPP stanzas through
// the deployment's HTTPS endpoint and long polls its SQS inbox for
// deliveries, decrypting them with the data key KMS releases to the
// user's client principal.
type Client struct {
	d      *core.Deployment
	member string
	jid    xmpp.JID
	seq    int

	dataKey []byte
	key     envelope.Key
	inbox   string
}

// Errors returned by the client.
var (
	ErrNotSessioned = errors.New("chat: session not initiated")
	ErrDenied       = errors.New("chat: server refused session")
)

// NewClient creates a client for a member of the deployment's room.
func NewClient(d *core.Deployment, member, resource string) *Client {
	return &Client{
		d:      d,
		member: member,
		jid:    xmpp.JID{Local: member, Domain: Domain, Resource: resource},
		inbox:  d.Queues[InboxQueueSuffix(member)],
	}
}

// ctx returns a fresh external client context on the cloud timeline.
func (c *Client) ctx() *sim.Context {
	ctx := c.d.ClientContext()
	return ctx
}

// Session performs XMPP session initiation over the HTTPS tunnel and
// fetches the data key from KMS. The returned stats describe the
// initiation invocation.
func (c *Client) Session() (lambda.InvocationStats, error) {
	iq := &xmpp.IQ{Type: "set", ID: "sess-1", From: c.jid.String(), Session: &xmpp.Session{}}
	resp, stats, err := c.sendStanza(iq)
	if err != nil {
		return stats, err
	}
	if resp.Status != 200 {
		return stats, fmt.Errorf("%w: %s", ErrDenied, resp.Body)
	}
	// Unwrap the deployment data key under the client's own authority.
	raw, err := c.d.Cloud.KMS.Decrypt(c.ctx(), c.d.WrappedKey)
	if err != nil {
		return stats, fmt.Errorf("chat: fetching data key: %w", err)
	}
	if c.key, err = envelope.NewKey(raw); err != nil {
		return stats, err
	}
	c.dataKey = raw
	return stats, nil
}

// Join announces presence.
func (c *Client) Join() error {
	resp, _, err := c.sendStanza(&xmpp.Presence{From: c.jid.String()})
	if err != nil {
		return err
	}
	if resp.Status != 200 {
		return fmt.Errorf("chat: join refused: %s", resp.Body)
	}
	return nil
}

// Leave announces unavailability.
func (c *Client) Leave() error {
	resp, _, err := c.sendStanza(&xmpp.Presence{From: c.jid.String(), Type: "unavailable"})
	if err != nil {
		return err
	}
	if resp.Status != 200 {
		return fmt.Errorf("chat: leave refused: %s", resp.Body)
	}
	return nil
}

// Send posts one groupchat message, returning the invocation stats
// (the Table 3 "Lambda Time Run"/"Billed" source).
func (c *Client) Send(body string) (lambda.InvocationStats, error) {
	stats, _, _, err := c.send(body, false)
	return stats, err
}

// Sent is the outcome of one SendTraced call.
type Sent struct {
	Stats lambda.InvocationStats
	// At is the simulated instant the message hit the inbox queues.
	At time.Time
	// Trace is the send's stored trace; Traced is false when the
	// cloud's store kept none (sampled out, or tracing disabled).
	Trace  trace.TraceView
	Traced bool
}

// SendTraced is Send with a distributed trace attached, plus the
// simulated instant the message hit the inbox queues. The stored trace
// holds one segment per service hop of the message's journey — gateway,
// function (with cold-start and billing-quantum sub-segments), KMS, S3
// and the per-member SQS fan-out — each carrying the usage it was
// metered for, so the whole send can be rendered as a flame tree with
// per-hop latency and dollars.
func (c *Client) SendTraced(body string) (Sent, error) {
	stats, at, tr, err := c.send(body, true)
	tv, ok := tr.Finish(at)
	return Sent{Stats: stats, At: at, Trace: tv, Traced: ok}, err
}

// send posts one groupchat message, under a TracedContext when traced,
// and reports the invocation stats and the instant the send completed.
// The caller finishes the returned (nil when untraced) trace.
func (c *Client) send(body string, traced bool) (lambda.InvocationStats, time.Time, *trace.Trace, error) {
	if c.dataKey == nil {
		return lambda.InvocationStats{}, time.Time{}, nil, ErrNotSessioned
	}
	c.seq++
	m := &xmpp.Message{
		From: c.jid.String(), To: "room@" + Domain,
		Type: "groupchat", ID: messageID(c.member, c.seq), Body: body,
	}
	raw, err := xmpp.Encode(m)
	if err != nil {
		return lambda.InvocationStats{}, time.Time{}, nil, err
	}
	var ctx *sim.Context
	var tr *trace.Trace
	if traced {
		ctx, tr = c.d.TracedContext("chat-send")
	} else {
		ctx = c.ctx()
	}
	resp, stats, err := c.d.Invoke(ctx, "stanza", raw)
	if err == nil && resp.Status != 200 {
		err = fmt.Errorf("chat: send refused (%d): %s", resp.Status, resp.Body)
	}
	return stats, ctx.Now(), tr, err
}

// ReceiveStanzas long polls the member's inbox for up to wait,
// decrypting, decoding and acknowledging every delivered stanza
// (messages and presence broadcasts alike). Pass a context from
// PollContext (or nil for a fresh one).
func (c *Client) ReceiveStanzas(ctx *sim.Context, wait time.Duration) ([]any, error) {
	if c.dataKey == nil {
		return nil, ErrNotSessioned
	}
	if ctx == nil {
		ctx = c.ctx()
	}
	msgs, err := c.d.Cloud.SQS.Receive(ctx, c.inbox, 10, wait)
	if err != nil {
		return nil, fmt.Errorf("chat: polling inbox: %w", err)
	}
	if len(msgs) > 0 && c.d.Cloud.Model != nil {
		// Response leg of the long poll back to the client device.
		ctx.Advance(c.d.Cloud.Model.Sample(netsim.HopClientGateway))
	}
	out := make([]any, 0, len(msgs))
	for _, qm := range msgs {
		pt, err := c.key.Open(qm.Body, []byte("inbox:"+c.member))
		if err != nil {
			return nil, fmt.Errorf("chat: opening delivery: %w", err)
		}
		st, err := xmpp.Decode(pt)
		if err != nil {
			return nil, fmt.Errorf("chat: decoding delivery: %w", err)
		}
		out = append(out, st)
		if err := c.d.Cloud.SQS.Delete(ctx, c.inbox, qm.ID); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Receive is ReceiveStanzas filtered to chat messages; presence
// broadcasts arriving in the same poll are consumed silently.
func (c *Client) Receive(ctx *sim.Context, wait time.Duration) ([]*xmpp.Message, error) {
	stanzas, err := c.ReceiveStanzas(ctx, wait)
	if err != nil {
		return nil, err
	}
	out := make([]*xmpp.Message, 0, len(stanzas))
	for _, st := range stanzas {
		if m, ok := st.(*xmpp.Message); ok {
			out = append(out, m)
		}
	}
	return out, nil
}

// PollContext returns a client context whose cursor starts at the given
// instant, for measuring delivery latency against a send timestamp.
func (c *Client) PollContext(at time.Time) *sim.Context {
	ctx := c.d.ClientContext()
	*ctx.Cursor = sim.CursorAt(at)
	return ctx
}

// Roster reports the room's members and who is currently present.
func (c *Client) Roster() (members, present []string, err error) {
	resp, _, err := c.d.Invoke(c.ctx(), "roster", []byte(c.member))
	if err != nil {
		return nil, nil, err
	}
	if resp.Status != 200 {
		return nil, nil, fmt.Errorf("chat: roster refused: %s", resp.Body)
	}
	var out struct {
		Members []string `json:"members"`
		Present []string `json:"present"`
	}
	if err := json.Unmarshal(resp.Body, &out); err != nil {
		return nil, nil, err
	}
	return out.Members, out.Present, nil
}

// Search asks the server to grep the decrypted archive — possible
// because DIY servers, unlike end-to-end-encrypted apps, may process
// plaintext inside the trusted container (§7).
func (c *Client) Search(query string) ([]*xmpp.Message, error) {
	req, err := json.Marshal(SearchRequest{Member: c.member, Query: query})
	if err != nil {
		return nil, err
	}
	resp, _, err := c.d.Invoke(c.ctx(), "search", req)
	if err != nil {
		return nil, err
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("chat: search refused: %s", resp.Body)
	}
	return decodeStanzaLines(resp.Body)
}

// History fetches the archived room history.
func (c *Client) History() ([]*xmpp.Message, error) {
	resp, _, err := c.d.Invoke(c.ctx(), "history", []byte(c.member))
	if err != nil {
		return nil, err
	}
	if resp.Status != 200 {
		return nil, fmt.Errorf("chat: history refused: %s", resp.Body)
	}
	return decodeStanzaLines(resp.Body)
}

// decodeStanzaLines parses newline-separated message stanzas.
func decodeStanzaLines(body []byte) ([]*xmpp.Message, error) {
	var out []*xmpp.Message
	for _, line := range splitLines(body) {
		if len(line) == 0 {
			continue
		}
		st, err := xmpp.Decode(line)
		if err != nil {
			return nil, err
		}
		if m, ok := st.(*xmpp.Message); ok {
			out = append(out, m)
		}
	}
	return out, nil
}

// Close zeroes the client's cached data key.
func (c *Client) Close() {
	envelope.Zero(c.dataKey)
	c.dataKey = nil
	c.key = envelope.Key{}
}

func (c *Client) sendStanza(st any) (lambda.Response, lambda.InvocationStats, error) {
	raw, err := xmpp.Encode(st)
	if err != nil {
		return lambda.Response{}, lambda.InvocationStats{}, err
	}
	return c.d.Invoke(c.ctx(), "stanza", raw)
}

func splitLines(b []byte) [][]byte {
	var lines [][]byte
	start := 0
	for i, ch := range b {
		if ch == '\n' {
			lines = append(lines, b[start:i])
			start = i + 1
		}
	}
	if start < len(b) {
		lines = append(lines, b[start:])
	}
	return lines
}
