// Package chat implements the paper's §6.2 prototype: "an instant
// messaging server using Amazon Lambda based on the XMPP protocol. Our
// implementation supports basic session initiation and message
// exchange."
//
// Faithful to the prototype's two deviations from standard XMPP:
//
//   - stanzas are tunneled through HTTPS, because the serverless
//     platform only supports HTTP(S) endpoints;
//   - long polling is implemented by the function posting encrypted
//     messages to per-member SQS inbox queues, which each client long
//     polls (maximum 20-second poll interval).
//
// Room history is chunked, envelope-encrypted and stored in the
// deployment's bucket; inbox copies are envelope-encrypted too, and
// opened client-side with the data key released by KMS to the user's
// client principal.
package chat

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/cloudsim/dynamo"
	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/s3"
	"repro/internal/core"
	"repro/internal/crypto/envelope"
	"repro/internal/proto/xmpp"
)

// Domain is the XMPP domain of DIY chat deployments.
const Domain = "diy.chat"

// chunkLimit caps a history chunk before rolling to the next one.
const chunkLimit = 64 << 10

// baseMemory approximates the chat function's resident runtime; the
// paper measured a 51 MB peak working set on a 448 MB function.
const baseMemory = 51 << 20

// App is the group-chat DIY application. One deployment serves one
// group (the paper's example: a 15-person Slack group).
type App struct {
	// Members are the group's member names; each gets an inbox queue.
	Members []string
	// MemoryMB overrides the prototype's 448 MB allocation, for the
	// memory-latency ablation.
	MemoryMB int
	// CacheDataKeys enables warm-container key caching (off in the
	// faithful prototype configuration).
	CacheDataKeys bool
	// Backend selects the state store: "" or "s3" for object storage
	// (the prototype's choice), "dynamo" for the low-latency table
	// store the paper footnotes as an alternative.
	Backend string
}

// Name implements core.App.
func (App) Name() string { return "chat" }

// Spec implements core.App: the §6.2 deployment — a 448 MB function
// behind an HTTPS endpoint, one inbox queue per member.
func (a App) Spec() core.AppSpec {
	mem := a.MemoryMB
	if mem == 0 {
		mem = 448
	}
	queues := make([]string, 0, len(a.Members))
	for _, m := range a.Members {
		queues = append(queues, InboxQueueSuffix(m))
	}
	return core.AppSpec{
		MemoryMB:         mem,
		Timeout:          30 * time.Second,
		Endpoint:         "/xmpp",
		Queues:           queues,
		CacheDataKeys:    a.CacheDataKeys,
		ClientCanDecrypt: true,
		EstCompute:       500 * time.Millisecond, // Table 2 row 1
		UseDynamo:        a.Backend == "dynamo",
		Code:             []byte("diy-chat:xmpp-https:v1"),
	}
}

// InboxQueueSuffix names a member's inbox queue suffix.
func InboxQueueSuffix(member string) string { return "inbox." + member }

// roomDoc is the sealed room document: metadata plus the live tail of
// the history. Keeping them together means a message send costs one S3
// GET and one S3 PUT on the hot path; full chunks are archived to
// separate objects as they fill.
type roomDoc struct {
	Chunks   int            `json:"chunks"` // archived chunk count
	Messages int            `json:"messages"`
	Members  []string       `json:"members"`
	Present  []string       `json:"present"`
	Entries  []historyEntry `json:"entries"` // live tail
	// LastID maps each member to their last accepted stanza id, making
	// sends idempotent: an HTTP retry of the same stanza neither
	// duplicates history nor re-fans-out.
	LastID map[string]string `json:"last_id,omitempty"`
}

// historyEntry is one archived message.
type historyEntry struct {
	From string `json:"from"`
	Body string `json:"body"`
	Seq  int    `json:"seq"`
}

// Handler implements core.App. Operations, all tunneled over HTTPS:
//
//	op "stanza": body is one XMPP stanza —
//	    IQ set/session  -> session initiation (IQ result)
//	    presence        -> join/leave tracking
//	    message         -> archive + fan out to member inboxes
//	op "history": body is the member name; returns the room history
//	    as newline-separated XMPP <message> stanzas.
//	op "search": body is SearchRequest JSON; the function decrypts the
//	    archive inside its container and greps it — the §7 point that
//	    DIY, unlike end-to-end-encrypted apps, can host services that
//	    process plaintext server-side.
func (a App) Handler() lambda.Handler {
	return func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
		h := &handler{env: env, app: a}
		switch ev.Op {
		case "stanza":
			return h.stanza(ev.Body)
		case "history":
			return h.history(strings.TrimSpace(string(ev.Body)))
		case "search":
			return h.search(ev.Body)
		case "roster":
			return h.roster(strings.TrimSpace(string(ev.Body)))
		default:
			return lambda.Response{Status: 400, Body: []byte("unknown op")}, nil
		}
	}
}

type handler struct {
	env *lambda.Env
	app App
}

func (h *handler) key() ([]byte, error) {
	wrapped, err := hex.DecodeString(h.env.Config(core.ConfigWrappedKey))
	if err != nil {
		return nil, fmt.Errorf("chat: bad wrapped key config: %w", err)
	}
	return h.env.DataKey(wrapped)
}

func (h *handler) bucket() string { return h.env.Config(core.ConfigBucket) }

// memberOf reports whether name is in the group.
func (h *handler) memberOf(name string) bool {
	for _, m := range h.app.Members {
		if m == name {
			return true
		}
	}
	return false
}

// messageID formats the stanza id "<prefix>-<n>": a client's nth
// message ("alice-7") or an archived entry ("seq-7").
func messageID(prefix string, n int) string {
	var buf [64]byte
	b := append(append(buf[:0], prefix...), '-')
	return string(strconv.AppendInt(b, int64(n), 10))
}

func (h *handler) stanza(body []byte) (lambda.Response, error) {
	h.env.RecordMemory(baseMemory + int64(2*len(body)))
	stanza, err := xmpp.Decode(body)
	if err != nil {
		return lambda.Response{Status: 400, Body: []byte(err.Error())}, nil
	}
	// Parsing and crypto on the container CPU.
	h.env.Compute(7 * time.Millisecond)

	switch st := stanza.(type) {
	case *xmpp.IQ:
		return h.iq(st)
	case *xmpp.Presence:
		return h.presence(st)
	case *xmpp.Message:
		return h.message(st)
	default:
		return lambda.Response{Status: 400, Body: []byte("unsupported stanza")}, nil
	}
}

// getBlob reads one sealed state blob from the configured backend,
// returning the item version for conditional writes (0 = absent or
// versionless backend).
func (h *handler) getBlob(storeKey string) ([]byte, int64, error) {
	if h.app.Backend == "dynamo" {
		it, err := h.env.Dynamo().Get(h.env.Ctx(), h.env.Config(core.ConfigTable), storeKey)
		if err != nil {
			return nil, 0, err
		}
		return it.Value, it.Version, nil
	}
	obj, err := h.env.S3().Get(h.env.Ctx(), h.bucket(), storeKey)
	if err != nil {
		return nil, 0, err
	}
	return obj.Data, 0, nil
}

// putBlob writes one sealed state blob. On the table backend the write
// is conditional on the version read earlier, giving optimistic
// concurrency; 2017 S3 had no conditional PUT, so the object backend is
// last-writer-wins — the same race the paper's real prototype had.
func (h *handler) putBlob(storeKey string, data []byte, ifVersion int64) error {
	if h.app.Backend == "dynamo" {
		return h.env.Dynamo().PutIfVersion(h.env.Ctx(), h.env.Config(core.ConfigTable), storeKey, data, ifVersion)
	}
	return h.env.S3().Put(h.env.Ctx(), h.bucket(), storeKey, data)
}

// roster returns the presence roster (JSON member list) to a member.
func (h *handler) roster(member string) (lambda.Response, error) {
	if !h.memberOf(member) {
		return lambda.Response{Status: 403, Body: []byte("not a member")}, nil
	}
	key, err := h.key()
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	doc, _, err := h.loadRoom(key)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	h.env.Compute(2 * time.Millisecond)
	out, err := json.Marshal(struct {
		Members []string `json:"members"`
		Present []string `json:"present"`
	}{Members: h.app.Members, Present: doc.Present})
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 200, Body: out}, nil
}

// SearchRequest is the "search" op payload.
type SearchRequest struct {
	Member string `json:"member"`
	Query  string `json:"query"`
}

// search scans the decrypted archive for a substring, case-insensitive,
// returning matches as XMPP stanzas. Plaintext exists only inside this
// invocation's container.
func (h *handler) search(body []byte) (lambda.Response, error) {
	var req SearchRequest
	if err := json.Unmarshal(body, &req); err != nil || req.Query == "" {
		return lambda.Response{Status: 400, Body: []byte("search needs member and query")}, nil
	}
	if !h.memberOf(req.Member) {
		return lambda.Response{Status: 403, Body: []byte("not a member")}, nil
	}
	key, err := h.key()
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	doc, _, err := h.loadRoom(key)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	needle := strings.ToLower(req.Query)
	scanned := 0
	var sb strings.Builder
	emitMatches := func(entries []historyEntry) error {
		for _, e := range entries {
			scanned += len(e.Body)
			if !strings.Contains(strings.ToLower(e.Body), needle) {
				continue
			}
			out, err := xmpp.Encode(&xmpp.Message{
				From: e.From + "@" + Domain, Type: "groupchat",
				ID: messageID("seq", e.Seq), Body: e.Body,
			})
			if err != nil {
				return err
			}
			sb.Write(out)
			sb.WriteByte('\n')
		}
		return nil
	}
	for c := 0; c < doc.Chunks; c++ {
		entries, err := h.loadArchivedChunk(key, c)
		if err != nil {
			return lambda.Response{Status: 500}, err
		}
		if err := emitMatches(entries); err != nil {
			return lambda.Response{Status: 500}, err
		}
	}
	if err := emitMatches(doc.Entries); err != nil {
		return lambda.Response{Status: 500}, err
	}
	// Scan cost on the container CPU, ~1 GB/s.
	h.env.Compute(time.Duration(scanned) * time.Nanosecond)
	h.env.RecordMemory(baseMemory + int64(scanned))
	return lambda.Response{Status: 200, Body: []byte(sb.String())}, nil
}

// loadRoom fetches and opens the room document. Only a missing object
// means a new, empty room; any other read failure is returned, since
// saving an empty room over an unreadable one would destroy its
// history. The returned version feeds saveRoom's conditional write.
func (h *handler) loadRoom(key []byte) (*roomDoc, int64, error) {
	data, version, err := h.getBlob("room")
	if errors.Is(err, s3.ErrNoSuchKey) || errors.Is(err, dynamo.ErrNoSuchItem) {
		return &roomDoc{Members: h.app.Members}, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("chat: reading room doc: %w", err)
	}
	pt, err := envelope.Open(key, data, []byte("room"))
	if err != nil {
		return nil, 0, fmt.Errorf("chat: opening room doc: %w", err)
	}
	doc, err := parseRoomDoc(pt)
	if err != nil {
		return nil, 0, fmt.Errorf("chat: parsing room doc: %w", err)
	}
	h.env.Compute(2 * time.Millisecond)
	return doc, version, nil
}

func (h *handler) saveRoom(key []byte, doc *roomDoc, ifVersion int64) error {
	sealed, err := envelope.SealInPlace(key, marshalRoomDoc(doc), []byte("room"))
	if err != nil {
		return err
	}
	h.env.Compute(2 * time.Millisecond)
	return h.putBlob("room", sealed, ifVersion)
}

// updateRoom applies mutate under optimistic concurrency: load, apply,
// conditional save, retry on version conflict (table backend only; the
// object backend has a single attempt, last-writer-wins).
func (h *handler) updateRoom(key []byte, mutate func(*roomDoc) error) error {
	const maxAttempts = 5
	for attempt := 0; attempt < maxAttempts; attempt++ {
		doc, version, err := h.loadRoom(key)
		if err != nil {
			return err
		}
		if err := mutate(doc); err != nil {
			return err
		}
		err = h.saveRoom(key, doc, version)
		if err == nil {
			return nil
		}
		if h.app.Backend == "dynamo" && errors.Is(err, dynamo.ErrConditionFailed) {
			continue // lost the race; reload and reapply
		}
		return err
	}
	return fmt.Errorf("chat: room update contention after %d attempts", maxAttempts)
}

// iq handles session initiation: <iq type="set"><session/></iq>.
func (h *handler) iq(iq *xmpp.IQ) (lambda.Response, error) {
	if iq.Type != "set" || iq.Session == nil {
		return h.iqError(iq, "bad-request", "only session initiation is supported")
	}
	from, err := xmpp.ParseJID(iq.From)
	if err != nil || !h.memberOf(from.Local) {
		return h.iqError(iq, "auth", "not a member of this room")
	}
	resource := from.Resource
	if resource == "" {
		resource = "device"
	}
	bound := xmpp.JID{Local: from.Local, Domain: Domain, Resource: resource}
	out, err := xmpp.Encode(&xmpp.IQ{
		Type: "result", ID: iq.ID, To: iq.From,
		Bind: &xmpp.Bind{JID: bound.String()},
	})
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 200, Body: out}, nil
}

func (h *handler) iqError(iq *xmpp.IQ, typ, text string) (lambda.Response, error) {
	out, err := xmpp.Encode(&xmpp.IQ{
		Type: "error", ID: iq.ID, To: iq.From,
		Error: &xmpp.Error{Type: typ, Text: text},
	})
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 403, Body: out}, nil
}

// presence updates the sealed presence roster.
func (h *handler) presence(p *xmpp.Presence) (lambda.Response, error) {
	from, err := xmpp.ParseJID(p.From)
	if err != nil || !h.memberOf(from.Local) {
		return lambda.Response{Status: 403, Body: []byte("not a member")}, nil
	}
	key, err := h.key()
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	err = h.updateRoom(key, func(doc *roomDoc) error {
		present := doc.Present[:0]
		for _, m := range doc.Present {
			if m != from.Local {
				present = append(present, m)
			}
		}
		doc.Present = present
		if p.Type != "unavailable" {
			doc.Present = append(doc.Present, from.Local)
		}
		return nil
	})
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	// Broadcast the presence change to the other members' inboxes so
	// their clients can update rosters without polling the server.
	relayed, err := xmpp.Encode(&xmpp.Presence{
		From: from.Bare().String(), Type: p.Type, Status: p.Status,
	})
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	if err := h.fanOut(key, from.Local, relayed); err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 200}, nil
}

// fanOut seals a stanza into every other member's inbox queue.
func (h *handler) fanOut(key []byte, sender string, stanza []byte) error {
	for _, member := range h.app.Members {
		if member == sender {
			continue
		}
		qname := h.env.Config(core.ConfigQueuePref + InboxQueueSuffix(member))
		if qname == "" {
			continue
		}
		sealed, err := envelope.Seal(key, stanza, []byte("inbox:"+member))
		if err != nil {
			return err
		}
		if _, err := h.env.SQS().Send(h.env.Ctx(), qname, sealed); err != nil {
			return err
		}
	}
	return nil
}

// message archives a groupchat message and fans it out, encrypted, to
// every other member's inbox queue.
func (h *handler) message(m *xmpp.Message) (lambda.Response, error) {
	from, err := xmpp.ParseJID(m.From)
	if err != nil || !h.memberOf(from.Local) {
		return lambda.Response{Status: 403, Body: []byte("not a member")}, nil
	}
	key, err := h.key()
	if err != nil {
		return lambda.Response{Status: 500}, err
	}

	// One GET, append, one PUT; archive the tail when it overflows.
	// On the table backend the write is version-conditional with
	// retries, so concurrent invocations never lose an update.
	rawLen := 0
	duplicate := false
	err = h.updateRoom(key, func(doc *roomDoc) error {
		duplicate = false
		if m.ID != "" {
			if doc.LastID == nil {
				doc.LastID = make(map[string]string)
			}
			if doc.LastID[from.Local] == m.ID {
				duplicate = true // retry of an accepted stanza
				return nil
			}
			doc.LastID[from.Local] = m.ID
		}
		doc.Messages++
		doc.Entries = append(doc.Entries, historyEntry{From: from.Local, Body: m.Body, Seq: doc.Messages})
		tailBytes := 0
		for _, e := range doc.Entries {
			tailBytes += len(e.Body) + len(e.From) + 24
		}
		rawLen = tailBytes
		if tailBytes > chunkLimit {
			if err := h.archiveChunk(key, doc); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	if duplicate {
		return lambda.Response{Status: 200, Attrs: map[string]string{"X-DIY-Duplicate": "1"}}, nil
	}

	// Fan out to the other members' inboxes, sealed.
	relayed, err := xmpp.Encode(&xmpp.Message{
		From: from.Bare().String(), Type: "groupchat",
		ID: m.ID, Body: m.Body,
	})
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	h.env.Compute(4 * time.Millisecond)
	if err := h.fanOut(key, from.Local, relayed); err != nil {
		return lambda.Response{Status: 500}, err
	}
	h.env.RecordMemory(baseMemory + int64(rawLen+4*len(m.Body)))
	return lambda.Response{Status: 200}, nil
}

// history returns the full archive as XMPP stanzas for a member.
func (h *handler) history(member string) (lambda.Response, error) {
	if !h.memberOf(member) {
		return lambda.Response{Status: 403, Body: []byte("not a member")}, nil
	}
	key, err := h.key()
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	doc, _, err := h.loadRoom(key)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	var sb strings.Builder
	emit := func(entries []historyEntry) error {
		for _, e := range entries {
			out, err := xmpp.Encode(&xmpp.Message{
				From: e.From + "@" + Domain, Type: "groupchat",
				ID: messageID("seq", e.Seq), Body: e.Body,
			})
			if err != nil {
				return err
			}
			sb.Write(out)
			sb.WriteByte('\n')
		}
		return nil
	}
	for c := 0; c < doc.Chunks; c++ {
		entries, err := h.loadArchivedChunk(key, c)
		if err != nil {
			return lambda.Response{Status: 500}, err
		}
		if err := emit(entries); err != nil {
			return lambda.Response{Status: 500}, err
		}
	}
	if err := emit(doc.Entries); err != nil {
		return lambda.Response{Status: 500}, err
	}
	h.env.Compute(6 * time.Millisecond)
	return lambda.Response{Status: 200, Body: []byte(sb.String())}, nil
}

// archiveChunk moves the live tail into an immutable archived chunk
// object and resets the tail.
func (h *handler) archiveChunk(key []byte, doc *roomDoc) error {
	chunkKey := fmt.Sprintf("history/%06d", doc.Chunks)
	sealed, err := envelope.SealInPlace(key, marshalEntries(doc.Entries), []byte(chunkKey))
	if err != nil {
		return err
	}
	if err := h.putBlob(chunkKey, sealed, -1); err != nil {
		return err
	}
	doc.Chunks++
	doc.Entries = nil
	return nil
}

// loadArchivedChunk reads archived chunk c.
func (h *handler) loadArchivedChunk(key []byte, c int) ([]historyEntry, error) {
	chunkKey := fmt.Sprintf("history/%06d", c)
	data, _, err := h.getBlob(chunkKey)
	if err != nil {
		return nil, fmt.Errorf("chat: reading chunk %s: %w", chunkKey, err)
	}
	pt, err := envelope.Open(key, data, []byte(chunkKey))
	if err != nil {
		return nil, fmt.Errorf("chat: opening chunk %s: %w", chunkKey, err)
	}
	entries, err := parseEntries(pt)
	if err != nil {
		return nil, fmt.Errorf("chat: parsing chunk %s: %w", chunkKey, err)
	}
	return entries, nil
}

// Install deploys a chat room for user with the given members.
func Install(cloud *core.Cloud, user string, app App) (*core.Deployment, error) {
	return core.Install(cloud, user, app)
}
