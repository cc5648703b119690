package email

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/s3"
	"repro/internal/cloudsim/sim"
	"repro/internal/core"
	"repro/internal/crypto/envelope"
	"repro/internal/crypto/sealedbox"
	"repro/internal/proto/pop3"
	"repro/internal/spam"
)

func newMailbox(t *testing.T, filter *spam.Filter) (*core.Cloud, *core.Deployment) {
	t.Helper()
	cloud, err := core.NewCloud(core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Install(cloud, "alice", App{SpamFilter: filter})
	if err != nil {
		t.Fatal(err)
	}
	return cloud, d
}

func deliver(t *testing.T, cloud *core.Cloud, from, subject, body string) {
	t.Helper()
	raw := fmt.Sprintf("From: %s\r\nTo: alice@%s\r\nSubject: %s\r\nDate: Mon, 05 Jun 2017 10:00:00 -0700\r\n\r\n%s\r\n",
		from, MailDomain, subject, body)
	ctx := &sim.Context{App: "email", Cursor: sim.NewCursor(cloud.Clock.Now())}
	if err := cloud.SES.Deliver(ctx, from, "alice@"+MailDomain, []byte(raw)); err != nil {
		t.Fatal(err)
	}
}

func listEntries(t *testing.T, d *core.Deployment) []IndexEntry {
	t.Helper()
	resp, _, err := d.Invoke(d.ClientContext(), "list", nil)
	if err != nil || resp.Status != 200 {
		t.Fatalf("list: %v status %d", err, resp.Status)
	}
	var entries []IndexEntry
	if err := json.Unmarshal(resp.Body, &entries); err != nil {
		t.Fatal(err)
	}
	return entries
}

func TestInboundStoredAndListed(t *testing.T) {
	cloud, d := newMailbox(t, nil)
	deliver(t, cloud, "bob@remote.net", "lunch?", "burgers at noon?")
	deliver(t, cloud, "carol@remote.net", "paper draft", "comments attached")

	entries := listEntries(t, d)
	if len(entries) != 2 {
		t.Fatalf("index has %d entries", len(entries))
	}
	if entries[0].From != "bob@remote.net" || entries[0].Subject != "lunch?" {
		t.Fatalf("entry 0 = %+v", entries[0])
	}
	if entries[0].ID == entries[1].ID {
		t.Fatal("duplicate ids")
	}
	if entries[0].Date.IsZero() {
		t.Fatal("date not parsed from headers")
	}
}

func TestFetchRoundTrip(t *testing.T) {
	cloud, d := newMailbox(t, nil)
	deliver(t, cloud, "bob@remote.net", "hello", "the body text")
	entries := listEntries(t, d)
	resp, _, err := d.Invoke(d.ClientContext(), "fetch", []byte(fmt.Sprintf("%d", entries[0].ID)))
	if err != nil || resp.Status != 200 {
		t.Fatalf("fetch: %v status %d", err, resp.Status)
	}
	if !strings.Contains(string(resp.Body), "the body text") {
		t.Fatalf("fetched %q", resp.Body)
	}
}

// denyStateReads denies s3:GetObject to the deployment's function
// role and returns a func that restores the role.
func denyStateReads(t *testing.T, cloud *core.Cloud, d *core.Deployment) (restore func()) {
	t.Helper()
	role, ok := cloud.IAM.Role(d.Role)
	if !ok {
		t.Fatalf("no role %q", d.Role)
	}
	orig := *role
	denied := orig
	denied.Policies = append(append([]iam.Policy(nil), orig.Policies...), iam.Policy{
		Name:       "deny-state-reads",
		Statements: []iam.Statement{iam.DenyStatement([]string{s3.ActionGet}, []string{"*"})},
	})
	if err := cloud.IAM.PutRole(&denied); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := cloud.IAM.PutRole(&orig); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFetchErrors(t *testing.T) {
	cloud, d := newMailbox(t, nil)
	resp, _, _ := d.Invoke(d.ClientContext(), "fetch", []byte("999"))
	if resp.Status != 404 {
		t.Fatalf("missing id status %d", resp.Status)
	}
	resp, _, _ = d.Invoke(d.ClientContext(), "fetch", []byte("not-a-number"))
	if resp.Status != 400 {
		t.Fatalf("bad id status %d", resp.Status)
	}
	// Only a missing message is a 404: a stored one the function may
	// not read is a failure, not an absence.
	deliver(t, cloud, "bob@remote.net", "hello", "the body text")
	restore := denyStateReads(t, cloud, d)
	resp, _, err := d.Invoke(d.ClientContext(), "fetch", []byte("1"))
	if resp.Status != 500 || !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("denied read: status %d, err %v; want 500 and ErrDenied", resp.Status, err)
	}
	restore()
	if resp, _, err := d.Invoke(d.ClientContext(), "fetch", []byte("1")); err != nil || resp.Status != 200 {
		t.Fatalf("fetch after restore: status %d, err %v", resp.Status, err)
	}
}

func TestMailAtRestIsSealed(t *testing.T) {
	cloud, d := newMailbox(t, nil)
	secret := "the acquisition price is 4.2B"
	deliver(t, cloud, "bob@remote.net", "confidential", secret)

	admin := &sim.Context{Principal: d.Role}
	keys, _ := cloud.S3.List(admin, d.Bucket, "")
	for _, k := range keys {
		obj, err := cloud.S3.Get(admin, d.Bucket, k)
		if err != nil {
			t.Fatal(err)
		}
		if !envelope.IsSealed(obj.Data) || bytes.Contains(obj.Data, []byte(secret)) {
			t.Fatalf("object %s leaks plaintext", k)
		}
	}
}

func TestDelete(t *testing.T) {
	cloud, d := newMailbox(t, nil)
	deliver(t, cloud, "bob@remote.net", "one", "1")
	deliver(t, cloud, "carol@remote.net", "two", "2")
	entries := listEntries(t, d)
	resp, _, err := d.Invoke(d.ClientContext(), "delete", []byte(fmt.Sprintf("%d", entries[0].ID)))
	if err != nil || resp.Status != 200 {
		t.Fatalf("delete: %v status %d", err, resp.Status)
	}
	after := listEntries(t, d)
	if len(after) != 1 || after[0].Subject != "two" {
		t.Fatalf("after delete: %+v", after)
	}
	// The stored object is gone too.
	resp, _, _ = d.Invoke(d.ClientContext(), "fetch", []byte(fmt.Sprintf("%d", entries[0].ID)))
	if resp.Status != 404 {
		t.Fatalf("deleted message still fetchable: %d", resp.Status)
	}
}

func TestSpamTagging(t *testing.T) {
	cloud, d := newMailbox(t, spam.NewFilter())
	deliver(t, cloud, "matei@cs.stanford.edu", "camera ready", "deadline is friday")
	deliver(t, cloud, "winner999999@lottery.biz", "CONGRATULATIONS WINNER",
		"You won the lottery!!! Claim your FREE prize of $1,000,000 now. Act now. Wire transfer of $500,000 dollars.")

	entries := listEntries(t, d)
	if len(entries) != 2 {
		t.Fatalf("index has %d entries", len(entries))
	}
	if entries[0].Spam {
		t.Fatalf("ham tagged as spam: %+v", entries[0])
	}
	if !entries[1].Spam || len(entries[1].Rules) == 0 {
		t.Fatalf("spam not tagged: %+v", entries[1])
	}
}

func TestSendOutbound(t *testing.T) {
	cloud, d := newMailbox(t, nil)
	req, _ := json.Marshal(SendRequest{
		To:  []string{"friend@remote.net"},
		Raw: []byte("Subject: hi\r\n\r\nsent from my DIY mailbox\r\n"),
	})
	resp, _, err := d.Invoke(d.ClientContext(), "send", req)
	if err != nil || resp.Status != 200 {
		t.Fatalf("send: %v status %d", err, resp.Status)
	}
	out := cloud.SES.Outbox()
	if len(out) != 1 || out[0].To != "friend@remote.net" {
		t.Fatalf("outbox = %+v", out)
	}
	if out[0].From != "alice@"+MailDomain {
		t.Fatalf("sender = %q", out[0].From)
	}
}

func TestSendValidation(t *testing.T) {
	_, d := newMailbox(t, nil)
	resp, _, _ := d.Invoke(d.ClientContext(), "send", []byte("garbage"))
	if resp.Status != 400 {
		t.Fatalf("bad payload status %d", resp.Status)
	}
	req, _ := json.Marshal(SendRequest{Raw: []byte("x")})
	resp, _, _ = d.Invoke(d.ClientContext(), "send", req)
	if resp.Status != 400 {
		t.Fatalf("no recipients status %d", resp.Status)
	}
}

func TestSendToAnotherDIYUser(t *testing.T) {
	// Bob also runs DIY email on the same cloud: Alice's send lands in
	// his encrypted mailbox end to end.
	cloud, dAlice := newMailbox(t, nil)
	dBob, err := core.Install(cloud, "bob", App{})
	if err != nil {
		t.Fatal(err)
	}
	req, _ := json.Marshal(SendRequest{
		To:  []string{"bob@" + MailDomain},
		Raw: []byte("Subject: federated!\r\n\r\nDIY to DIY delivery\r\n"),
	})
	resp, _, err := dAlice.Invoke(dAlice.ClientContext(), "send", req)
	if err != nil || resp.Status != 200 {
		t.Fatalf("send: %v status %d", err, resp.Status)
	}
	respList, _, err := dBob.Invoke(dBob.ClientContext(), "list", nil)
	if err != nil {
		t.Fatal(err)
	}
	var entries []IndexEntry
	json.Unmarshal(respList.Body, &entries)
	if len(entries) != 1 || entries[0].Subject != "federated!" {
		t.Fatalf("bob's index = %+v", entries)
	}
}

func TestUnknownOp(t *testing.T) {
	_, d := newMailbox(t, nil)
	resp, _, _ := d.Invoke(d.ClientContext(), "frobnicate", nil)
	if resp.Status != 400 {
		t.Fatalf("unknown op status %d", resp.Status)
	}
}

func TestPOP3RetrievalPath(t *testing.T) {
	// The full standard mail path: SMTP in (tested elsewhere), POP3
	// out via the bridge, over a real TCP socket.
	cloud, d := newMailbox(t, nil)
	deliver(t, cloud, "bob@remote.net", "pop-one", "first body")
	deliver(t, cloud, "carol@remote.net", "pop-two", "second body")

	srv := &pop3.Server{Hostname: MailDomain, Auth: POP3Auth(d, "hunter2")}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReader(conn)
	readLine := func() string {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		return strings.TrimRight(line, "\r\n")
	}
	expectOK := func() string {
		line := readLine()
		if !strings.HasPrefix(line, "+OK") {
			t.Fatalf("got %q", line)
		}
		return line
	}
	send := func(s string) { fmt.Fprintf(conn, "%s\r\n", s) }

	expectOK()
	send("USER alice")
	expectOK()
	send("PASS hunter2")
	expectOK()
	send("STAT")
	if line := expectOK(); !strings.HasPrefix(line, "+OK 2 ") {
		t.Fatalf("STAT = %q", line)
	}
	send("RETR 1")
	expectOK()
	var body strings.Builder
	for {
		l := readLine()
		if l == "." {
			break
		}
		body.WriteString(l + "\n")
	}
	if !strings.Contains(body.String(), "first body") {
		t.Fatalf("RETR body = %q", body.String())
	}
	// Delete over POP3 removes from the mailbox at QUIT.
	send("DELE 1")
	expectOK()
	send("QUIT")
	expectOK()
	if entries := listEntries(t, d); len(entries) != 1 || entries[0].Subject != "pop-two" {
		t.Fatalf("after POP3 DELE: %+v", entries)
	}
}

func TestPOP3AuthRejectsWrongCreds(t *testing.T) {
	_, d := newMailbox(t, nil)
	auth := POP3Auth(d, "secret")
	if _, err := auth("alice", "wrong"); err == nil {
		t.Fatal("wrong password accepted")
	}
	if _, err := auth("mallory", "secret"); err == nil {
		t.Fatal("wrong user accepted")
	}
	if _, err := auth("alice", "secret"); err != nil {
		t.Fatal(err)
	}
}

func TestPGPModeOnlyClientCanRead(t *testing.T) {
	cloud, err := core.NewCloud(core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pub, priv, err := sealedbox.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Install(cloud, "alice", App{RecipientPub: &pub})
	if err != nil {
		t.Fatal(err)
	}
	secret := "pgp-protected body text"
	raw := fmt.Sprintf("From: bob@remote.net\r\nTo: alice@%s\r\nSubject: sealed\r\n\r\n%s\r\n", MailDomain, secret)
	ctx := &sim.Context{App: "email", Cursor: sim.NewCursor(cloud.Clock.Now())}
	if err := cloud.SES.Deliver(ctx, "bob@remote.net", "alice@"+MailDomain, []byte(raw)); err != nil {
		t.Fatal(err)
	}

	// Listing still works (index is under the data key).
	entries := listEntries(t, d)
	if len(entries) != 1 || entries[0].Subject != "sealed" {
		t.Fatalf("entries = %+v", entries)
	}

	// Fetch returns a sealed box the client must open locally.
	resp, _, err := d.Invoke(d.ClientContext(), "fetch", []byte("1"))
	if err != nil || resp.Status != 200 {
		t.Fatalf("fetch: %v %d", err, resp.Status)
	}
	if resp.Attrs["X-DIY-Sealed"] != "box" {
		t.Fatal("fetch did not mark the body as sealed")
	}
	if !sealedbox.IsSealedBox(resp.Body) || bytes.Contains(resp.Body, []byte(secret)) {
		t.Fatal("fetch returned plaintext in PGP mode")
	}
	pt, err := sealedbox.Open(priv, resp.Body, []byte("mail/000001"))
	if err != nil || !strings.Contains(string(pt), secret) {
		t.Fatalf("client-side open failed: %v", err)
	}

	// The deployment data key alone cannot open the body: even a full
	// KMS compromise does not expose stored mail contents.
	admin := &sim.Context{Principal: d.Role}
	dataKey, err := cloud.KMS.Decrypt(admin, d.WrappedKey)
	if err != nil {
		t.Fatal(err)
	}
	key, err := envelope.NewKey(dataKey)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := cloud.S3.Get(admin, d.Bucket, "mail/000001")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := key.Open(obj.Data, []byte("mail/000001")); err == nil {
		t.Fatal("data key opened a PGP-mode body")
	}
}

func TestSpamFeedbackTraining(t *testing.T) {
	filter := spam.NewFilter()
	cloud, d := newMailbox(t, filter)

	// A borderline message the static rules miss.
	borderline := "casino bonus pharmacy rounds vigor pills discount club"
	for i := 0; i < 12; i++ {
		deliver(t, cloud, fmt.Sprintf("promo%d@remote.net", i), "weekly digest", borderline)
		deliver(t, cloud, fmt.Sprintf("colleague%d@cs.example", i), "reading group",
			"agenda for the systems meeting attached")
	}
	entries := listEntries(t, d)
	// Train: mark the digests spam, the meeting mail ham.
	for _, e := range entries {
		op := "markham"
		if strings.Contains(e.Subject, "digest") {
			op = "markspam"
		}
		resp, _, err := d.Invoke(d.ClientContext(), op, []byte(fmt.Sprintf("%d", e.ID)))
		if err != nil || resp.Status != 200 {
			t.Fatalf("%s %d: %v %d", op, e.ID, err, resp.Status)
		}
	}
	// The index tags were corrected...
	entries = listEntries(t, d)
	for _, e := range entries {
		wantSpam := strings.Contains(e.Subject, "digest")
		if e.Spam != wantSpam {
			t.Fatalf("entry %d spam=%v, want %v", e.ID, e.Spam, wantSpam)
		}
	}
	// ...and the Bayes layer now flags fresh borderline mail on its own.
	score, rules := filter.Score(&spam.Message{Subject: "another digest", Body: borderline})
	hasBayes := false
	for _, r := range rules {
		if r == "BAYES" {
			hasBayes = true
		}
	}
	if !hasBayes || score <= 0 {
		t.Fatalf("trained filter did not learn: score %.2f rules %v", score, rules)
	}
}

func TestMarkErrors(t *testing.T) {
	// No filter configured.
	_, d := newMailbox(t, nil)
	resp, _, _ := d.Invoke(d.ClientContext(), "markspam", []byte("1"))
	if resp.Status != 409 {
		t.Fatalf("no-filter mark status %d", resp.Status)
	}
	// PGP mode refuses (the server cannot read bodies).
	cloud2, err := core.NewCloud(core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pub, _, err := sealedbox.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := core.Install(cloud2, "alice", App{SpamFilter: spam.NewFilter(), RecipientPub: &pub})
	if err != nil {
		t.Fatal(err)
	}
	resp, _, _ = d2.Invoke(d2.ClientContext(), "markspam", []byte("1"))
	if resp.Status != 409 || !strings.Contains(string(resp.Body), "PGP") {
		t.Fatalf("PGP mark status %d %q", resp.Status, resp.Body)
	}
	// Bad and missing ids.
	cloud3, d3 := newMailbox(t, spam.NewFilter())
	resp, _, _ = d3.Invoke(d3.ClientContext(), "markspam", []byte("zero"))
	if resp.Status != 400 {
		t.Fatalf("bad id status %d", resp.Status)
	}
	resp, _, _ = d3.Invoke(d3.ClientContext(), "markspam", []byte("42"))
	if resp.Status != 404 {
		t.Fatalf("missing id status %d", resp.Status)
	}
	// A stored message the function may not read is a 500.
	deliver(t, cloud3, "bob@remote.net", "hello", "the body text")
	restore := denyStateReads(t, cloud3, d3)
	resp, _, err = d3.Invoke(d3.ClientContext(), "markspam", []byte("1"))
	if resp.Status != 500 || !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("denied read: status %d, err %v; want 500 and ErrDenied", resp.Status, err)
	}
	restore()
}

// TestInboundDedupInvalidUTF8MessageID redelivers a message whose
// Message-ID holds bytes that are not UTF-8. The index stores the id
// with each such byte as U+FFFD, and the dedup lookup compares that
// stored form, so the redelivery is recognised: one entry, not two.
func TestInboundDedupInvalidUTF8MessageID(t *testing.T) {
	cloud, d := newMailbox(t, nil)
	raw := "From: bob@remote.net\r\nTo: alice@" + MailDomain +
		"\r\nSubject: once\r\nMessage-Id: <a\xff\xfe@remote.net>\r\n\r\nbody\r\n"
	for i := 0; i < 2; i++ { // original + one redelivery
		ctx := &sim.Context{App: "email", Cursor: sim.NewCursor(cloud.Clock.Now())}
		if err := cloud.SES.Deliver(ctx, "bob@remote.net", "alice@"+MailDomain, []byte(raw)); err != nil {
			t.Fatal(err)
		}
	}
	if entries := listEntries(t, d); len(entries) != 1 {
		t.Fatalf("index has %d entries, want 1 (dedup of an id with invalid UTF-8)", len(entries))
	}
}

func TestInboundDedupByMessageID(t *testing.T) {
	cloud, d := newMailbox(t, nil)
	raw := "From: bob@remote.net\r\nTo: alice@" + MailDomain +
		"\r\nSubject: once\r\nMessage-Id: <abc-123@remote.net>\r\n\r\nbody\r\n"
	for i := 0; i < 3; i++ { // original + two redeliveries
		ctx := &sim.Context{App: "email", Cursor: sim.NewCursor(cloud.Clock.Now())}
		if err := cloud.SES.Deliver(ctx, "bob@remote.net", "alice@"+MailDomain, []byte(raw)); err != nil {
			t.Fatal(err)
		}
	}
	entries := listEntries(t, d)
	if len(entries) != 1 {
		t.Fatalf("index has %d entries, want 1 (dedup)", len(entries))
	}
	// Messages without a Message-ID are never deduped.
	deliver(t, cloud, "carol@remote.net", "no-id", "x")
	deliver(t, cloud, "carol@remote.net", "no-id", "x")
	if entries := listEntries(t, d); len(entries) != 3 {
		t.Fatalf("index has %d entries, want 3", len(entries))
	}
}
