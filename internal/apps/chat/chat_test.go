package chat

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cloudsim/sim"
	"repro/internal/core"
	"repro/internal/crypto/envelope"
	"repro/internal/pricing"
	"repro/internal/proto/xmpp"
)

func newRoom(t *testing.T, members ...string) (*core.Cloud, *core.Deployment) {
	t.Helper()
	cloud, err := core.NewCloud(core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(members) == 0 {
		members = []string{"alice", "bob"}
	}
	d, err := Install(cloud, "alice", App{Members: members})
	if err != nil {
		t.Fatal(err)
	}
	return cloud, d
}

func session(t *testing.T, d *core.Deployment, member string) *Client {
	t.Helper()
	c := NewClient(d, member, "test")
	if _, err := c.Session(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSessionInitiation(t *testing.T) {
	_, d := newRoom(t)
	c := NewClient(d, "alice", "phone")
	stats, err := c.Session()
	if err != nil {
		t.Fatal(err)
	}
	if stats.BilledTime < 100*time.Millisecond {
		t.Fatalf("billed %v", stats.BilledTime)
	}
}

func TestSessionRejectsNonMember(t *testing.T) {
	_, d := newRoom(t)
	c := NewClient(d, "mallory", "x")
	if _, err := c.Session(); err == nil {
		t.Fatal("non-member session accepted")
	}
}

func TestSendDeliverReceive(t *testing.T) {
	_, d := newRoom(t)
	alice := session(t, d, "alice")
	bob := session(t, d, "bob")

	sent, err := alice.SendTraced("hello bob")
	if err != nil {
		t.Fatal(err)
	}
	sentAt := sent.At
	if sent.Stats.RunTime <= 0 {
		t.Fatal("no run time recorded")
	}

	msgs, err := bob.Receive(bob.PollContext(sentAt), 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].Body != "hello bob" {
		t.Fatalf("bob received %v", msgs)
	}
	if msgs[0].From != "alice@"+Domain {
		t.Fatalf("from = %q", msgs[0].From)
	}

	// The sender does not receive their own message.
	own, err := alice.Receive(alice.PollContext(sentAt), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(own) != 0 {
		t.Fatalf("alice received her own message: %v", own)
	}
}

func TestGroupFanOut(t *testing.T) {
	_, d := newRoom(t, "alice", "bob", "carol", "dave")
	alice := session(t, d, "alice")
	sent, err := alice.SendTraced("team: standup at 10")
	if err != nil {
		t.Fatal(err)
	}
	sentAt := sent.At
	for _, member := range []string{"bob", "carol", "dave"} {
		c := session(t, d, member)
		msgs, err := c.Receive(c.PollContext(sentAt), 20*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(msgs) != 1 {
			t.Fatalf("%s received %d messages", member, len(msgs))
		}
	}
}

func TestHistory(t *testing.T) {
	_, d := newRoom(t)
	alice := session(t, d, "alice")
	bob := session(t, d, "bob")
	for _, text := range []string{"one", "two", "three"} {
		if _, err := alice.Send(text); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := bob.Send("four"); err != nil {
		t.Fatal(err)
	}
	hist, err := bob.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 4 {
		t.Fatalf("history has %d messages", len(hist))
	}
	if hist[0].Body != "one" || hist[3].Body != "four" {
		t.Fatalf("history order: %v, %v", hist[0].Body, hist[3].Body)
	}
	if hist[3].From != "bob@"+Domain {
		t.Fatalf("history attribution: %q", hist[3].From)
	}
}

func TestHistoryChunkRolling(t *testing.T) {
	_, d := newRoom(t)
	alice := session(t, d, "alice")
	big := strings.Repeat("x", 8<<10)
	for i := 0; i < 12; i++ { // ~96 KB total, rolls past the 64 KB chunk
		if _, err := alice.Send(big); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := alice.History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 12 {
		t.Fatalf("history has %d messages across chunks", len(hist))
	}
}

func TestEverythingAtRestIsSealed(t *testing.T) {
	cloud, d := newRoom(t)
	alice := session(t, d, "alice")
	secret := "the launch code is 0000"
	if _, err := alice.Send(secret); err != nil {
		t.Fatal(err)
	}
	admin := &sim.Context{Principal: d.Role}
	keys, err := cloud.S3.List(admin, d.Bucket, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) == 0 {
		t.Fatal("nothing stored")
	}
	for _, k := range keys {
		obj, err := cloud.S3.Get(admin, d.Bucket, k)
		if err != nil {
			t.Fatal(err)
		}
		if !envelope.IsSealed(obj.Data) {
			t.Fatalf("object %s is not sealed", k)
		}
		if bytes.Contains(obj.Data, []byte(secret)) {
			t.Fatalf("plaintext leaked in %s", k)
		}
	}
}

func TestQueuedDeliveriesAreSealed(t *testing.T) {
	cloud, d := newRoom(t)
	alice := session(t, d, "alice")
	secret := "very private line"
	sent, err := alice.SendTraced(secret)
	if err != nil {
		t.Fatal(err)
	}
	sentAt := sent.At
	// Raw queue inspection (as the cloud provider could do): sealed.
	ctx := &sim.Context{Principal: d.ClientRole, Cursor: sim.NewCursor(sentAt)}
	raw, err := cloud.SQS.Receive(ctx, d.Queues[InboxQueueSuffix("bob")], 1, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != 1 {
		t.Fatal("no delivery")
	}
	if !envelope.IsSealed(raw[0].Body) || bytes.Contains(raw[0].Body, []byte(secret)) {
		t.Fatal("queued delivery is not sealed")
	}
}

func TestPresenceTracking(t *testing.T) {
	_, d := newRoom(t)
	alice := session(t, d, "alice")
	if err := alice.Join(); err != nil {
		t.Fatal(err)
	}
	if err := alice.Leave(); err != nil {
		t.Fatal(err)
	}
	// Double leave is harmless.
	if err := alice.Leave(); err != nil {
		t.Fatal(err)
	}
}

func TestNonMemberMessageRejected(t *testing.T) {
	_, d := newRoom(t)
	mallory := NewClient(d, "mallory", "x")
	mallory.dataKey = make([]byte, envelope.KeySize) // forged key
	if _, err := mallory.Send("spam"); err == nil {
		t.Fatal("non-member send accepted")
	}
}

func TestSendWithoutSession(t *testing.T) {
	_, d := newRoom(t)
	c := NewClient(d, "alice", "x")
	if _, err := c.Send("hi"); err != ErrNotSessioned {
		t.Fatalf("got %v, want ErrNotSessioned", err)
	}
	if _, err := c.Receive(nil, 0); err != ErrNotSessioned {
		t.Fatalf("receive: got %v, want ErrNotSessioned", err)
	}
}

func TestTable3ShapeOneSend(t *testing.T) {
	// One warm send must bill 200 ms (a 100-200 ms run rounded up) and
	// the peak working set must land near the paper's 51 MB.
	_, d := newRoom(t)
	alice := session(t, d, "alice")
	alice.Send("warm me up")
	stats, err := alice.Send("measured send")
	if err != nil {
		t.Fatal(err)
	}
	if stats.BilledTime != 200*time.Millisecond {
		t.Fatalf("billed %v, want 200ms (run %v)", stats.BilledTime, stats.RunTime)
	}
	peakMB := stats.PeakMemoryBytes >> 20
	if peakMB < 45 || peakMB > 60 {
		t.Fatalf("peak memory %d MB, want ≈51", peakMB)
	}
	if stats.ColdStart {
		t.Fatal("second send should be warm")
	}
}

func TestBadStanzasRejected(t *testing.T) {
	_, d := newRoom(t)
	resp, _, err := d.Invoke(d.ClientContext(), "stanza", []byte("not xml"))
	if err != nil || resp.Status != 400 {
		t.Fatalf("garbage stanza: %v status %d", err, resp.Status)
	}
	resp, _, err = d.Invoke(d.ClientContext(), "bogus-op", nil)
	if err != nil || resp.Status != 400 {
		t.Fatalf("bogus op: %v status %d", err, resp.Status)
	}
	// IQ other than session-set gets an XMPP error stanza.
	raw, _ := xmpp.Encode(&xmpp.IQ{Type: "get", ID: "q", From: "alice@" + Domain})
	resp, _, err = d.Invoke(d.ClientContext(), "stanza", raw)
	if err != nil || resp.Status != 403 {
		t.Fatalf("bad IQ: %v status %d", err, resp.Status)
	}
}

// TestNonCanonicalStanzaRejected pins the tunnel's strictness: a stanza
// in any form other than the one xmpp.Encode writes gets HTTP 400 from
// the stanza op, even where a general XML parser would read the same
// message.
func TestNonCanonicalStanzaRejected(t *testing.T) {
	_, d := newRoom(t)
	from := "alice@" + Domain + "/phone"
	canonical := `<message from="` + from + `" to="room@` + Domain + `" type="groupchat" id="alice-1"><body>hi</body></message>`
	resp, _, err := d.Invoke(d.ClientContext(), "stanza", []byte(canonical))
	if err != nil || resp.Status != 200 {
		t.Fatalf("canonical stanza: %v status %d %s", err, resp.Status, resp.Body)
	}
	for _, bad := range []string{
		strings.ReplaceAll(canonical, `"`, `'`),
		`<message type="groupchat" from="` + from + `" id="alice-2"><body>hi</body></message>`,
		`<presence from="` + from + `"/>`,
		`<?xml version="1.0"?>` + canonical,
		"\n" + canonical + "\n",
	} {
		resp, _, err := d.Invoke(d.ClientContext(), "stanza", []byte(bad))
		if err != nil || resp.Status != 400 {
			t.Errorf("stanza %q: %v status %d, want 400", bad, err, resp.Status)
		}
	}
}

func TestHistoryDeniedForNonMember(t *testing.T) {
	_, d := newRoom(t)
	resp, _, err := d.Invoke(d.ClientContext(), "history", []byte("mallory"))
	if err != nil || resp.Status != 403 {
		t.Fatalf("non-member history: %v status %d", err, resp.Status)
	}
}

func TestUsageMetered(t *testing.T) {
	cloud, d := newRoom(t)
	alice := session(t, d, "alice")
	alice.Send("bill me")
	m := cloud.Meter
	if m.TotalFor(pricing.LambdaRequests, "chat") < 2 { // session + send
		t.Fatal("lambda requests not metered")
	}
	if m.TotalFor(pricing.SQSRequests, "chat") < 1 {
		t.Fatal("sqs requests not metered")
	}
	if m.TotalFor(pricing.KMSRequests, "chat") < 1 {
		t.Fatal("kms requests not metered")
	}
}

func TestDynamoBackendRoundTrip(t *testing.T) {
	cloud, err := core.NewCloud(core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Install(cloud, "alice", App{Members: []string{"alice", "bob"}, Backend: "dynamo"})
	if err != nil {
		t.Fatal(err)
	}
	if d.Table == "" || !cloud.Dynamo.TableExists(d.Table) {
		t.Fatal("dynamo table not provisioned")
	}
	alice := session(t, d, "alice")
	bob := session(t, d, "bob")
	secret := "fast path message"
	sent, err := alice.SendTraced(secret)
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := bob.Receive(bob.PollContext(sent.At), 20*time.Second)
	if err != nil || len(msgs) != 1 || msgs[0].Body != secret {
		t.Fatalf("delivery over dynamo backend: %v %v", err, msgs)
	}
	hist, err := bob.History()
	if err != nil || len(hist) != 1 {
		t.Fatalf("history over dynamo backend: %v %v", err, hist)
	}
	// Everything in the table is sealed ciphertext.
	admin := &sim.Context{Principal: d.Role}
	keys, err := cloud.Dynamo.Query(admin, d.Table, "")
	if err != nil || len(keys) == 0 {
		t.Fatalf("table query: %v %v", err, keys)
	}
	for _, k := range keys {
		it, err := cloud.Dynamo.Get(admin, d.Table, k)
		if err != nil {
			t.Fatal(err)
		}
		if !envelope.IsSealed(it.Value) || bytes.Contains(it.Value, []byte(secret)) {
			t.Fatalf("item %s leaks plaintext", k)
		}
	}
	// And nothing leaked into S3: the bucket exists but holds no state.
	bucketKeys, _ := cloud.S3.List(admin, d.Bucket, "")
	if len(bucketKeys) != 0 {
		t.Fatalf("dynamo-backed chat wrote to S3: %v", bucketKeys)
	}
}

func TestDynamoBackendMigration(t *testing.T) {
	src, _ := core.NewCloud(core.CloudOptions{Name: "src"})
	dst, _ := core.NewCloud(core.CloudOptions{Name: "dst"})
	d, err := Install(src, "alice", App{Members: []string{"alice", "bob"}, Backend: "dynamo"})
	if err != nil {
		t.Fatal(err)
	}
	alice := session(t, d, "alice")
	if _, err := alice.Send("survives table migration"); err != nil {
		t.Fatal(err)
	}
	nd, err := core.Migrate(d, dst, true)
	if err != nil {
		t.Fatal(err)
	}
	if src.Dynamo.TableExists("alice-chat") {
		t.Fatal("source table survived migration")
	}
	alice2 := session(t, nd, "alice")
	hist, err := alice2.History()
	if err != nil || len(hist) != 1 || hist[0].Body != "survives table migration" {
		t.Fatalf("post-migration history: %v %v", err, hist)
	}
}

func TestPresenceBroadcastDelivered(t *testing.T) {
	_, d := newRoom(t)
	alice := session(t, d, "alice")
	bob := session(t, d, "bob")

	joinStart := d.Cloud.Clock.Now()
	if err := alice.Join(); err != nil {
		t.Fatal(err)
	}
	stanzas, err := bob.ReceiveStanzas(bob.PollContext(joinStart), 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(stanzas) != 1 {
		t.Fatalf("bob received %d stanzas", len(stanzas))
	}
	p, ok := stanzas[0].(*xmpp.Presence)
	if !ok {
		t.Fatalf("stanza is %T, want *xmpp.Presence", stanzas[0])
	}
	if p.From != "alice@"+Domain || p.Type != "" {
		t.Fatalf("presence = %+v", p)
	}

	// Leave announces unavailability.
	leaveStart := d.Cloud.Clock.Now()
	if err := alice.Leave(); err != nil {
		t.Fatal(err)
	}
	stanzas, err = bob.ReceiveStanzas(bob.PollContext(leaveStart), 20*time.Second)
	if err != nil || len(stanzas) != 1 {
		t.Fatalf("leave broadcast: %v, %d stanzas", err, len(stanzas))
	}
	if p := stanzas[0].(*xmpp.Presence); p.Type != "unavailable" {
		t.Fatalf("leave presence = %+v", p)
	}
}

func TestReceiveFiltersPresenceAndAcksIt(t *testing.T) {
	// A presence broadcast followed by a message: Receive returns only
	// the message, and the presence does not reappear on the next poll.
	_, d := newRoom(t)
	alice := session(t, d, "alice")
	bob := session(t, d, "bob")
	start := d.Cloud.Clock.Now()
	if err := alice.Join(); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Send("after join"); err != nil {
		t.Fatal(err)
	}
	msgs, err := bob.Receive(bob.PollContext(start), 20*time.Second)
	if err != nil || len(msgs) != 1 || msgs[0].Body != "after join" {
		t.Fatalf("receive: %v %v", err, msgs)
	}
	// Nothing left: the presence was acknowledged, not redelivered.
	again, err := bob.ReceiveStanzas(bob.PollContext(d.Cloud.Clock.Now().Add(time.Hour)), time.Second)
	if err != nil || len(again) != 0 {
		t.Fatalf("redelivery: %v %v", err, again)
	}
}

func TestConcurrentSendsNoLostUpdates(t *testing.T) {
	// The read-modify-write race: N concurrent sends against the table
	// backend must all land in the history (conditional writes +
	// retry). 2017 S3 had no conditional PUT, so the object backend is
	// documented last-writer-wins; the table backend must be exact.
	cloud, err := core.NewCloud(core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	members := []string{"alice", "bob", "carol", "dave"}
	d, err := Install(cloud, "team", App{Members: members, Backend: "dynamo"})
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*Client, len(members))
	for i, m := range members {
		clients[i] = session(t, d, m)
	}

	const perMember = 5
	var wg sync.WaitGroup
	errs := make(chan error, len(members)*perMember)
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for i := 0; i < perMember; i++ {
				if _, err := c.Send(fmt.Sprintf("concurrent %d", i)); err != nil {
					errs <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	hist, err := clients[0].History()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != len(members)*perMember {
		t.Fatalf("history has %d messages, want %d (lost updates)", len(hist), len(members)*perMember)
	}
	// Sequence numbers are dense and unique.
	seen := make(map[string]bool)
	for _, m := range hist {
		if seen[m.ID] {
			t.Fatalf("duplicate seq id %s", m.ID)
		}
		seen[m.ID] = true
	}
}

func TestIdempotentSendOnRetry(t *testing.T) {
	// An HTTP retry re-delivers the same stanza (same id): history and
	// fan-out must not duplicate.
	_, d := newRoom(t)
	alice := session(t, d, "alice")
	bob := session(t, d, "bob")

	start := d.Cloud.Clock.Now()
	stanza, err := xmpp.Encode(&xmpp.Message{
		From: "alice@" + Domain + "/phone", Type: "groupchat",
		ID: "retry-1", Body: "exactly once please",
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // original + two retries
		resp, _, err := d.Invoke(d.ClientContext(), "stanza", stanza)
		if err != nil || resp.Status != 200 {
			t.Fatalf("attempt %d: %v %d", i, err, resp.Status)
		}
		if i > 0 && resp.Attrs["X-DIY-Duplicate"] != "1" {
			t.Fatalf("retry %d not flagged as duplicate", i)
		}
	}
	hist, err := alice.History()
	if err != nil || len(hist) != 1 {
		t.Fatalf("history has %d messages, want 1", len(hist))
	}
	msgs, err := bob.Receive(bob.PollContext(start), 20*time.Second)
	if err != nil || len(msgs) != 1 {
		t.Fatalf("bob received %d copies, want 1", len(msgs))
	}
	// A different id from the same sender is accepted.
	if _, err := alice.Send("new message"); err != nil {
		t.Fatal(err)
	}
	hist, _ = alice.History()
	if len(hist) != 2 {
		t.Fatalf("history has %d, want 2", len(hist))
	}
}

func TestServerSideSearch(t *testing.T) {
	// §7: E2E-encrypted apps cannot host services that process
	// plaintext; DIY can, inside the container.
	_, d := newRoom(t)
	alice := session(t, d, "alice")
	bob := session(t, d, "bob")
	for _, text := range []string{
		"lunch at the thai place?",
		"deploy the cost table update",
		"Thai again next week",
		"privacy review notes attached",
	} {
		if _, err := alice.Send(text); err != nil {
			t.Fatal(err)
		}
	}
	// Case-insensitive substring search across the archive.
	matches, err := bob.Search("thai")
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 2 {
		t.Fatalf("search found %d, want 2", len(matches))
	}
	// Across chunk boundaries too.
	big := strings.Repeat("filler ", 2000)
	for i := 0; i < 8; i++ {
		alice.Send(big)
	}
	alice.Send("needle in the final chunk")
	matches, err = bob.Search("NEEDLE")
	if err != nil || len(matches) != 1 {
		t.Fatalf("cross-chunk search: %v, %d matches", err, len(matches))
	}
	// Non-members and malformed requests are refused.
	resp, _, _ := d.Invoke(d.ClientContext(), "search", []byte(`{"member":"mallory","query":"x"}`))
	if resp.Status != 403 {
		t.Fatalf("non-member search status %d", resp.Status)
	}
	resp, _, _ = d.Invoke(d.ClientContext(), "search", []byte(`{"member":"alice"}`))
	if resp.Status != 400 {
		t.Fatalf("empty query status %d", resp.Status)
	}
}

func TestRoster(t *testing.T) {
	_, d := newRoom(t, "alice", "bob", "carol")
	alice := session(t, d, "alice")
	bob := session(t, d, "bob")
	if err := alice.Join(); err != nil {
		t.Fatal(err)
	}
	if err := bob.Join(); err != nil {
		t.Fatal(err)
	}
	members, present, err := alice.Roster()
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 3 {
		t.Fatalf("members = %v", members)
	}
	if len(present) != 2 {
		t.Fatalf("present = %v, want alice+bob", present)
	}
	if err := bob.Leave(); err != nil {
		t.Fatal(err)
	}
	_, present, _ = alice.Roster()
	if len(present) != 1 || present[0] != "alice" {
		t.Fatalf("present after leave = %v", present)
	}
	// Non-members are refused.
	resp, _, _ := d.Invoke(d.ClientContext(), "roster", []byte("mallory"))
	if resp.Status != 403 {
		t.Fatalf("non-member roster status %d", resp.Status)
	}
}
