package filetransfer

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/s3"
	"repro/internal/cloudsim/sim"
	"repro/internal/core"
	"repro/internal/crypto/envelope"
	"repro/internal/crypto/sealedbox"
)

func newXfer(t *testing.T) (*core.Cloud, *core.Deployment) {
	t.Helper()
	cloud, err := core.NewCloud(core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Install(cloud, "alice", App{})
	if err != nil {
		t.Fatal(err)
	}
	return cloud, d
}

// clientKey is the data key as the user's devices hold it: unwrapped
// under the client principal.
func clientKey(t *testing.T, d *core.Deployment) envelope.Key {
	t.Helper()
	raw, err := d.Cloud.KMS.Decrypt(d.ClientContext(), d.WrappedKey)
	if err != nil {
		t.Fatal(err)
	}
	key, err := envelope.NewKey(raw)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

func upload(t *testing.T, d *core.Deployment, name, to string, data []byte) {
	t.Helper()
	req, _ := json.Marshal(UploadRequest{Name: name, To: to, Data: data})
	resp, _, err := d.Invoke(d.ClientContext(), "upload", req)
	if err != nil || resp.Status != 200 {
		t.Fatalf("upload: %v status %d %s", err, resp.Status, resp.Body)
	}
}

func TestUploadDownloadRoundTrip(t *testing.T) {
	_, d := newXfer(t)
	payload := bytes.Repeat([]byte("media"), 100_000) // 500 KB
	upload(t, d, "vacation.mp4", "bob", payload)

	resp, stats, err := d.Invoke(d.ClientContext(), "download", []byte("vacation.mp4"))
	if err != nil || resp.Status != 200 {
		t.Fatalf("download: %v status %d", err, resp.Status)
	}
	if !bytes.Equal(resp.Body, payload) {
		t.Fatal("download corrupted the payload")
	}
	// Buffering the file dominates the working set.
	if stats.PeakMemoryBytes < int64(len(payload)) {
		t.Fatalf("peak memory %d below payload size", stats.PeakMemoryBytes)
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

// Only an absent transfer is a 404: one the function may not read is a
// failure, not an absence.
func TestDownloadErrors(t *testing.T) {
	cloud, d := newXfer(t)
	resp, _, err := d.Invoke(d.ClientContext(), "download", []byte("absent.bin"))
	if err != nil || resp.Status != 404 {
		t.Fatalf("absent transfer: status %d, err %v; want 404", resp.Status, err)
	}
	upload(t, d, "there.bin", "bob", []byte("payload"))
	restore := denyStateReads(t, cloud, d)
	resp, _, err = d.Invoke(d.ClientContext(), "download", []byte("there.bin"))
	if resp.Status != 500 || !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("denied read: status %d, err %v; want 500 and ErrDenied", resp.Status, err)
	}
	restore()
	resp, _, err = d.Invoke(d.ClientContext(), "download", []byte("there.bin"))
	if err != nil || resp.Status != 200 || string(resp.Body) != "payload" {
		t.Fatalf("download after restore: status %d, err %v, body %q", resp.Status, err, resp.Body)
	}
}

func TestOfferNotification(t *testing.T) {
	cloud, d := newXfer(t)
	upload(t, d, "doc.pdf", "bob", []byte("contents"))

	// The recipient polls the offers queue and opens the notice with
	// the client-held data key.
	ctx := d.ClientContext()
	msgs, err := cloud.SQS.Receive(ctx, d.Queues[OffersQueue], 1, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("offers delivered: %d", len(msgs))
	}
	if !envelope.IsSealed(msgs[0].Body) {
		t.Fatal("offer notice is plaintext")
	}
	pt, err := clientKey(t, d).Open(msgs[0].Body, []byte("offer"))
	if err != nil {
		t.Fatal(err)
	}
	var offer Offer
	if err := json.Unmarshal(pt, &offer); err != nil {
		t.Fatal(err)
	}
	if offer.Name != "doc.pdf" || offer.To != "bob" || offer.From != "alice" || offer.Size != 8 {
		t.Fatalf("offer = %+v", offer)
	}
}

func TestDirectSealedFetch(t *testing.T) {
	// The "simultaneous" AirDrop path: the recipient's device reads
	// the sealed object straight from storage and opens it locally.
	cloud, d := newXfer(t)
	payload := []byte("direct download payload")
	upload(t, d, "direct.bin", "bob", payload)

	ctx := d.ClientContext()
	obj, err := cloud.S3.Get(ctx, d.Bucket, ObjectKey("direct.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !envelope.IsSealed(obj.Data) || bytes.Contains(obj.Data, payload) {
		t.Fatal("stored file not sealed")
	}
	pt, err := clientKey(t, d).Open(obj.Data, []byte(ObjectKey("direct.bin")))
	if err != nil || !bytes.Equal(pt, payload) {
		t.Fatalf("direct fetch failed: %v", err)
	}
}

func TestList(t *testing.T) {
	_, d := newXfer(t)
	upload(t, d, "a.txt", "bob", []byte("a"))
	upload(t, d, "b.txt", "carol", []byte("bb"))
	resp, _, err := d.Invoke(d.ClientContext(), "list", nil)
	if err != nil || resp.Status != 200 {
		t.Fatalf("list: %v status %d", err, resp.Status)
	}
	var offers []Offer
	if err := json.Unmarshal(resp.Body, &offers); err != nil {
		t.Fatal(err)
	}
	if len(offers) != 2 || offers[1].Name != "b.txt" || offers[1].Size != 2 {
		t.Fatalf("offers = %+v", offers)
	}
}

func TestSweepExpiresOldTransfers(t *testing.T) {
	cloud, err := core.NewCloud(core.CloudOptions{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := core.Install(cloud, "alice", App{TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	upload(t, d, "old.bin", "bob", []byte("old"))

	// Two hours later, a new upload arrives and a sweep runs.
	cloud.Clock.Advance(2 * time.Hour)
	upload(t, d, "fresh.bin", "bob", []byte("fresh"))
	resp, _, err := d.Invoke(d.ClientContext(), "sweep", nil)
	if err != nil || resp.Status != 200 {
		t.Fatalf("sweep: %v status %d", err, resp.Status)
	}
	if string(resp.Body) != "1" {
		t.Fatalf("swept %q transfers, want 1", resp.Body)
	}
	// Old object is gone, fresh one remains.
	admin := &sim.Context{Principal: d.Role}
	if _, err := cloud.S3.Get(admin, d.Bucket, ObjectKey("old.bin")); err == nil {
		t.Fatal("expired transfer still stored")
	}
	if _, err := cloud.S3.Get(admin, d.Bucket, ObjectKey("fresh.bin")); err != nil {
		t.Fatal("fresh transfer swept")
	}
	respDl, _, _ := d.Invoke(d.ClientContext(), "download", []byte("old.bin"))
	if respDl.Status != 404 {
		t.Fatalf("expired download status %d", respDl.Status)
	}
}

func TestUploadValidation(t *testing.T) {
	_, d := newXfer(t)
	cases := []UploadRequest{
		{},                               // empty
		{Name: "x"},                      // no data
		{Name: "a/b", Data: []byte("x")}, // path traversal
	}
	for _, c := range cases {
		req, _ := json.Marshal(c)
		resp, _, _ := d.Invoke(d.ClientContext(), "upload", req)
		if resp.Status != 400 {
			t.Errorf("request %+v status %d, want 400", c, resp.Status)
		}
	}
	resp, _, _ := d.Invoke(d.ClientContext(), "upload", []byte("not json"))
	if resp.Status != 400 {
		t.Errorf("garbage request status %d", resp.Status)
	}
	resp, _, _ = d.Invoke(d.ClientContext(), "download", nil)
	if resp.Status != 400 {
		t.Errorf("empty download status %d", resp.Status)
	}
	resp, _, _ = d.Invoke(d.ClientContext(), "download", []byte("ghost.bin"))
	if resp.Status != 404 {
		t.Errorf("missing download status %d", resp.Status)
	}
}

func TestLargeFileRunsLongAndBillsAccordingly(t *testing.T) {
	// The Table 2 row models 2000 ms requests at 1 GB memory: a large
	// upload must bill multiple quanta.
	_, d := newXfer(t)
	payload := bytes.Repeat([]byte("x"), 20<<20) // 20 MB
	req, _ := json.Marshal(UploadRequest{Name: "big.iso", To: "bob", Data: payload})
	_, stats, err := d.Invoke(d.ClientContext(), "upload", req)
	if err != nil {
		t.Fatal(err)
	}
	if stats.BilledTime < 500*time.Millisecond {
		t.Fatalf("20 MB upload billed only %v", stats.BilledTime)
	}
}

func TestExternalRecipientFlow(t *testing.T) {
	// The zero-credential AirDrop: the sender seals the file to the
	// recipient's public key and hands over a presigned link; the
	// recipient needs no cloud account at all.
	cloud, d := newXfer(t)
	pub, priv, err := sealedbox.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("for dana's eyes only")
	req, _ := json.Marshal(UploadRequest{
		Name: "secret.pdf", To: "dana@elsewhere.example",
		Data: payload, RecipientPub: pub.Bytes(),
	})
	if resp, _, err := d.Invoke(d.ClientContext(), "upload", req); err != nil || resp.Status != 200 {
		t.Fatalf("upload: %v %d", err, resp.Status)
	}
	resp, _, err := d.Invoke(d.ClientContext(), "link", []byte("secret.pdf"))
	if err != nil || resp.Status != 200 {
		t.Fatalf("link: %v %d", err, resp.Status)
	}
	token := string(resp.Body)

	// Dana: anonymous external caller with just the token + her key.
	anon := &sim.Context{Cursor: sim.NewCursor(cloud.Clock.Now()), External: true}
	obj, err := cloud.S3.GetPresigned(anon, token)
	if err != nil {
		t.Fatal(err)
	}
	if !sealedbox.IsSealedBox(obj.Data) || bytes.Contains(obj.Data, payload) {
		t.Fatal("stored transfer is not a sealed box")
	}
	pt, err := sealedbox.Open(priv, obj.Data, []byte(ObjectKey("secret.pdf")))
	if err != nil || !bytes.Equal(pt, payload) {
		t.Fatalf("recipient open: %v", err)
	}

	// The deployment data key cannot open a recipient-sealed transfer.
	if _, err := clientKey(t, d).Open(obj.Data, []byte(ObjectKey("secret.pdf"))); err == nil {
		t.Fatal("data key opened a recipient-sealed transfer")
	}

	// The link dies with the TTL.
	late := &sim.Context{Cursor: sim.NewCursor(cloud.Clock.Now().Add(25 * time.Hour)), External: true}
	if _, err := cloud.S3.GetPresigned(late, token); err == nil {
		t.Fatal("expired link still works")
	}
}

func TestLinkValidation(t *testing.T) {
	_, d := newXfer(t)
	resp, _, _ := d.Invoke(d.ClientContext(), "link", nil)
	if resp.Status != 400 {
		t.Fatalf("empty link status %d", resp.Status)
	}
	// Linking a missing transfer still mints a token (S3 presign does
	// not check existence, like AWS) — but redeeming it 404s.
	resp, _, _ = d.Invoke(d.ClientContext(), "link", []byte("ghost.bin"))
	if resp.Status != 200 {
		t.Fatalf("link to missing transfer status %d", resp.Status)
	}
	cloud := d.Cloud
	anon := &sim.Context{Cursor: sim.NewCursor(cloud.Clock.Now())}
	if _, err := cloud.S3.GetPresigned(anon, string(resp.Body)); err == nil {
		t.Fatal("redeemed link to a missing object")
	}
}

func TestUploadBadRecipientKey(t *testing.T) {
	_, d := newXfer(t)
	req, _ := json.Marshal(UploadRequest{Name: "x.bin", Data: []byte("x"), RecipientPub: []byte("short")})
	resp, _, _ := d.Invoke(d.ClientContext(), "upload", req)
	if resp.Status != 400 {
		t.Fatalf("bad key status %d", resp.Status)
	}
}

// A failed manifest read must fail the upload, not be taken for an
// empty manifest: saving an empty manifest over an unreadable one would
// drop every pending transfer.
func TestUnreadableManifestFailsAndKeepsTransfers(t *testing.T) {
	cloud, d := newXfer(t)
	upload(t, d, "a.txt", "bob", []byte("a"))
	restore := denyStateReads(t, cloud, d)
	req, _ := json.Marshal(UploadRequest{Name: "b.txt", To: "carol", Data: []byte("bb")})
	if resp, _, err := d.Invoke(d.ClientContext(), "upload", req); err == nil && resp.Status == 200 {
		t.Fatal("upload succeeded although the manifest could not be read")
	}
	restore()
	resp, _, err := d.Invoke(d.ClientContext(), "list", nil)
	if err != nil || resp.Status != 200 {
		t.Fatalf("list: %v status %d", err, resp.Status)
	}
	var offers []Offer
	if err := json.Unmarshal(resp.Body, &offers); err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Name != "a.txt" {
		t.Fatalf("offers after the failed read = %+v", offers)
	}
}
