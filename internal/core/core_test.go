package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cloudsim/gateway"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/sim"
	"repro/internal/crypto/attest"
	"repro/internal/crypto/envelope"
	"repro/internal/pricing"
)

// notesApp is a minimal DIY app used to exercise the full Figure 1
// request flow: get key from KMS, decrypt/encrypt, read/write S3.
type notesApp struct{}

func (notesApp) Name() string { return "notes" }

func (notesApp) Spec() AppSpec {
	return AppSpec{
		MemoryMB:      128,
		Timeout:       30 * time.Second,
		Endpoint:      "/api",
		Queues:        []string{"events"},
		CacheDataKeys: true,
		EstCompute:    10 * time.Millisecond,
	}
}

func (notesApp) Handler() lambda.Handler {
	return func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
		v, err := OpenVault(env)
		if err != nil {
			return lambda.Response{Status: 500}, err
		}
		env.Compute(5 * time.Millisecond)
		switch ev.Op {
		case "put":
			if err := v.Put("note", ev.Body); err != nil {
				return lambda.Response{Status: 500}, err
			}
			return lambda.Response{Status: 200}, nil
		case "get":
			pt, found, err := v.Load("note")
			if err != nil {
				return lambda.Response{Status: 500}, err
			}
			if !found {
				return lambda.Response{Status: 404}, nil
			}
			// pt is zeroed when the invocation ends.
			return lambda.Response{Status: 200, Body: bytes.Clone(pt)}, nil
		case "leak":
			// A buggy/malicious op that tries to store plaintext.
			err := env.S3().Put(env.Ctx(), v.Bucket(), "leaked", ev.Body)
			if err != nil {
				return lambda.Response{Status: 403}, err
			}
			return lambda.Response{Status: 200}, nil
		default:
			return lambda.Response{Status: 400}, nil
		}
	}
}

func newCloud(t *testing.T, name string) *Cloud {
	t.Helper()
	c, err := NewCloud(CloudOptions{Name: name})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func install(t *testing.T, c *Cloud, user string) *Deployment {
	t.Helper()
	d, err := Install(c, user, notesApp{})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestInstallProvisionsResources(t *testing.T) {
	c := newCloud(t, "aws-sim")
	d := install(t, c, "alice")

	if !c.S3.BucketExists("alice-notes") {
		t.Error("bucket missing")
	}
	if !c.KMS.KeyExists("alice-notes") {
		t.Error("key missing")
	}
	if !c.SQS.QueueExists("alice-notes-events") {
		t.Error("queue missing")
	}
	if _, ok := c.Lambda.Function("alice-notes"); !ok {
		t.Error("function missing")
	}
	if _, ok := c.IAM.Role(d.Role); !ok {
		t.Error("function role missing")
	}
	if _, ok := c.IAM.Role(d.ClientRole); !ok {
		t.Error("client role missing")
	}
	if d.Endpoint != "/alice/notes/api" {
		t.Errorf("endpoint = %q", d.Endpoint)
	}
	if len(d.WrappedKey) == 0 {
		t.Error("no wrapped deployment key")
	}
}

func TestInstallInvalidUser(t *testing.T) {
	c := newCloud(t, "aws-sim")
	for _, user := range []string{"", "a/b", "a b", "a-b"} {
		if _, err := Install(c, user, notesApp{}); err == nil {
			t.Errorf("user %q accepted", user)
		}
	}
}

func TestEndToEndEncryptedRoundTrip(t *testing.T) {
	c := newCloud(t, "aws-sim")
	d := install(t, c, "alice")
	ctx := d.ClientContext()

	secret := []byte("my private note: the merger closes tuesday")
	resp, stats, err := d.Invoke(ctx, "put", secret)
	if err != nil || resp.Status != 200 {
		t.Fatalf("put: %v status %d", err, resp.Status)
	}
	if stats.BilledTime%pricing.BillingQuantum != 0 {
		t.Errorf("billed %v not a quantum multiple", stats.BilledTime)
	}

	resp, _, err = d.Invoke(d.ClientContext(), "get", nil)
	if err != nil || !bytes.Equal(resp.Body, secret) {
		t.Fatalf("get: %v body %q", err, resp.Body)
	}

	// The core privacy invariant: what sits in cloud storage is
	// ciphertext and does not contain the plaintext.
	adminCtx := &sim.Context{Principal: d.Role}
	obj, err := c.S3.Get(adminCtx, d.Bucket, "note")
	if err != nil {
		t.Fatal(err)
	}
	if !envelope.IsSealed(obj.Data) {
		t.Fatal("stored object is not sealed")
	}
	if bytes.Contains(obj.Data, secret) {
		t.Fatal("plaintext leaked into storage")
	}
}

func TestPlaintextWriteRejected(t *testing.T) {
	c := newCloud(t, "aws-sim")
	d := install(t, c, "alice")
	resp, _, _ := d.Invoke(d.ClientContext(), "leak", []byte("oops plaintext"))
	if resp.Status != 403 {
		t.Fatalf("leak op status = %d, want 403 (policy rejection)", resp.Status)
	}
}

func TestUserIsolation(t *testing.T) {
	c := newCloud(t, "aws-sim")
	dA := install(t, c, "alice")
	install(t, c, "bob")

	// Alice's function role must not read Bob's bucket or key.
	aliceCtx := &sim.Context{Principal: dA.Role}
	if _, err := c.S3.Get(aliceCtx, "bob-notes", "note"); !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("cross-user bucket read: %v", err)
	}
	if _, _, err := c.KMS.GenerateDataKey(aliceCtx, "bob-notes"); !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("cross-user key use: %v", err)
	}
	// Alice's *client* must not poll Bob's queue.
	clientCtx := dA.ClientContext()
	if _, err := c.SQS.Receive(clientCtx, "bob-notes-events", 1, 0); !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("cross-user queue poll: %v", err)
	}
}

func TestDoubleInstallFails(t *testing.T) {
	c := newCloud(t, "aws-sim")
	install(t, c, "alice")
	if _, err := Install(c, "alice", notesApp{}); err == nil {
		t.Fatal("second install of same app for same user succeeded")
	}
}

func TestDeleteWithData(t *testing.T) {
	c := newCloud(t, "aws-sim")
	d := install(t, c, "alice")
	d.Invoke(d.ClientContext(), "put", []byte("doomed"))

	if err := d.Delete(true); err != nil {
		t.Fatal(err)
	}
	if c.S3.BucketExists("alice-notes") {
		t.Error("bucket survived delete")
	}
	if c.KMS.KeyExists("alice-notes") {
		t.Error("master key survived delete — data still recoverable")
	}
	if c.SQS.QueueExists("alice-notes-events") {
		t.Error("queue survived delete")
	}
	if _, ok := c.Lambda.Function("alice-notes"); ok {
		t.Error("function survived delete")
	}
	if _, _, err := d.Invoke(d.ClientContext(), "get", nil); !errors.Is(err, ErrNotInstalled) {
		t.Errorf("invoke after delete: %v", err)
	}
	if err := d.Delete(true); !errors.Is(err, ErrNotInstalled) {
		t.Errorf("double delete: %v", err)
	}
}

func TestMigrateAcrossClouds(t *testing.T) {
	src := newCloud(t, "aws-sim")
	dst := newCloud(t, "azure-sim")
	d := install(t, src, "alice")

	secret := []byte("note that must survive migration")
	if _, _, err := d.Invoke(d.ClientContext(), "put", secret); err != nil {
		t.Fatal(err)
	}

	nd, err := Migrate(d, dst, true)
	if err != nil {
		t.Fatal(err)
	}
	// Old cloud is clean.
	if src.S3.BucketExists("alice-notes") || src.KMS.KeyExists("alice-notes") {
		t.Fatal("source resources survived migration with deleteSource")
	}
	// The data is readable on the new cloud through the normal path.
	resp, _, err := nd.Invoke(nd.ClientContext(), "get", nil)
	if err != nil || !bytes.Equal(resp.Body, secret) {
		t.Fatalf("post-migration get: %v body %q", err, resp.Body)
	}
	// And it is still ciphertext at rest on the destination.
	obj, err := dst.S3.Get(&sim.Context{Principal: nd.Role}, nd.Bucket, "note")
	if err != nil {
		t.Fatal(err)
	}
	if !envelope.IsSealed(obj.Data) || bytes.Contains(obj.Data, secret) {
		t.Fatal("migration shipped plaintext")
	}
}

func TestAttestation(t *testing.T) {
	c := newCloud(t, "aws-sim")
	d := install(t, c, "alice")

	nonce := []byte("client-session-nonce")
	q, err := d.AttestQuote(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyAttestation(q, nonce); err != nil {
		t.Fatalf("valid attestation rejected: %v", err)
	}
	// Tampered measurement fails.
	q.Measurement[0] ^= 0xff
	if err := d.VerifyAttestation(q, nonce); err == nil {
		t.Fatal("tampered quote verified")
	}
}

func TestThrottledEndpoint(t *testing.T) {
	c := newCloud(t, "aws-sim")

	app := throttledApp{}
	d, err := Install(c, "alice", app)
	if err != nil {
		t.Fatal(err)
	}
	ctx := d.ClientContext()
	var throttled bool
	for i := 0; i < 10; i++ {
		_, _, err := d.Invoke(ctx, "ping", nil)
		if errors.Is(err, gateway.ErrThrottled) {
			throttled = true
			break
		}
	}
	if !throttled {
		t.Fatal("throttle never engaged")
	}
}

// throttledApp exposes an endpoint with a tight rate limit.
type throttledApp struct{}

func (throttledApp) Name() string { return "pinger" }
func (throttledApp) Spec() AppSpec {
	return AppSpec{Endpoint: "/ping", Limit: gateway.Limit{RPS: 0.1, Burst: 2}}
}
func (throttledApp) Handler() lambda.Handler {
	return func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
		return lambda.Response{Status: 200}, nil
	}
}

func TestTCBReport(t *testing.T) {
	r := NewTCBReport()
	if r.Ratio() <= 1 {
		t.Fatalf("TCB ratio %v; DIY must trust strictly less", r.Ratio())
	}
	s := r.String()
	if !strings.Contains(s, "key management service") || !strings.Contains(s, "analytics") {
		t.Fatalf("report rendering incomplete:\n%s", s)
	}
}

func TestBill(t *testing.T) {
	c := newCloud(t, "aws-sim")
	d := install(t, c, "alice")
	d.Invoke(d.ClientContext(), "put", []byte("x"))
	bill := c.Bill()
	if bill.Line(pricing.LambdaRequests).Quantity < 1 {
		t.Fatal("bill missing lambda requests")
	}
	// At one request everything is inside the free tiers.
	if bill.TotalOf(pricing.LambdaRequests, pricing.LambdaGBSeconds) != 0 {
		t.Fatal("free tier not applied")
	}
}

func TestInvokeAttestedDetectsCodeSwap(t *testing.T) {
	c := newCloud(t, "aws-sim")
	d := install(t, c, "alice")

	// Honest deployment: attested invocation succeeds end to end.
	resp, _, err := d.InvokeAttested(d.ClientContext(), "put", []byte("secret"))
	if err != nil || resp.Status != 200 {
		t.Fatalf("attested invoke: %v status %d", err, resp.Status)
	}

	// The provider (or a compromised marketplace) swaps the package.
	evil := func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
		return lambda.Response{Status: 200, Body: ev.Body}, nil // exfiltration stub
	}
	if err := c.Lambda.ReplaceCode(d.FnName, []byte("diy-app:notes:v1-backdoored"), evil); err != nil {
		t.Fatal(err)
	}
	// Plain Invoke cannot tell...
	if _, _, err := d.Invoke(d.ClientContext(), "put", []byte("x")); err != nil {
		t.Fatalf("plain invoke after swap: %v", err)
	}
	// ...but the attested path refuses before sending anything.
	_, _, err = d.InvokeAttested(d.ClientContext(), "put", []byte("would-be-stolen"))
	if err == nil {
		t.Fatal("attested invoke accepted tampered code")
	}
	if !errors.Is(err, attest.ErrMeasurement) {
		t.Fatalf("got %v, want ErrMeasurement", err)
	}
}

func TestInvokeAttestedAfterDelete(t *testing.T) {
	c := newCloud(t, "aws-sim")
	d := install(t, c, "alice")
	d.Delete(true)
	if _, _, err := d.InvokeAttested(d.ClientContext(), "get", nil); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("got %v, want ErrNotInstalled", err)
	}
}

// upgradeableApp supports version-distinguished upgrades with an
// endpoint and an inbound address, to cover Upgrade's re-binding.
type upgradeableApp struct{ version string }

func (upgradeableApp) Name() string { return "notes" }
func (a upgradeableApp) Spec() AppSpec {
	return AppSpec{
		Endpoint:     "/api",
		InboundAddrs: []string{"%USER%@notes.example"},
		Code:         []byte("notes-" + a.version),
	}
}
func (a upgradeableApp) Handler() lambda.Handler {
	return func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
		return lambda.Response{Status: 200, Body: []byte(a.version)}, nil
	}
}

func TestUpgradeRebindsTriggers(t *testing.T) {
	c := newCloud(t, "aws-sim")
	d, err := Install(c, "alice", upgradeableApp{version: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := Upgrade(d, upgradeableApp{version: "v2"}); err != nil {
		t.Fatal(err)
	}
	// New code serves via the endpoint...
	resp, _, err := d.Invoke(d.ClientContext(), "ping", nil)
	if err != nil || string(resp.Body) != "v2" {
		t.Fatalf("post-upgrade invoke: %v %q", err, resp.Body)
	}
	// ...and the inbound trigger still routes.
	if _, ok := c.Lambda.TriggerTarget("ses", "alice@notes.example"); !ok {
		t.Fatal("inbound trigger lost across upgrade")
	}
	// Attestation now expects the new measurement.
	nonce := []byte("n")
	q, err := d.AttestQuote(nonce)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyAttestation(q, nonce); err != nil {
		t.Fatalf("post-upgrade attestation: %v", err)
	}
}

func TestUpgradeValidation(t *testing.T) {
	c := newCloud(t, "aws-sim")
	d, err := Install(c, "alice", upgradeableApp{version: "v1"})
	if err != nil {
		t.Fatal(err)
	}
	// Different app name is refused.
	if err := Upgrade(d, notesAppRenamed{}); err == nil {
		t.Fatal("cross-app upgrade accepted")
	}
	// Deleted deployment is refused.
	if err := d.Delete(true); err != nil {
		t.Fatal(err)
	}
	if err := Upgrade(d, upgradeableApp{version: "v2"}); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("got %v, want ErrNotInstalled", err)
	}
}

type notesAppRenamed struct{}

func (notesAppRenamed) Name() string            { return "other" }
func (notesAppRenamed) Spec() AppSpec           { return AppSpec{} }
func (notesAppRenamed) Handler() lambda.Handler { return nil }

func TestMigrateRefusesPlaintext(t *testing.T) {
	src := newCloud(t, "src")
	dst := newCloud(t, "dst")
	d := install(t, src, "alice")
	// An operator lifts the bucket policy and sneaks plaintext in; the
	// migration's defense-in-depth check must refuse to ship it.
	src.S3.SetRequireSealed(d.Bucket, false)
	adminCtx := &sim.Context{Principal: d.Role}
	if err := src.S3.Put(adminCtx, d.Bucket, "leak", []byte("plaintext!")); err != nil {
		t.Fatal(err)
	}
	if _, err := Migrate(d, dst, true); err == nil || !strings.Contains(err.Error(), "plaintext") {
		t.Fatalf("migration shipped plaintext: %v", err)
	}
}

func TestMigrateNotInstalled(t *testing.T) {
	src := newCloud(t, "src")
	dst := newCloud(t, "dst")
	d := install(t, src, "alice")
	d.Delete(true)
	if _, err := Migrate(d, dst, true); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("got %v, want ErrNotInstalled", err)
	}
}

func TestInstallCollisionPaths(t *testing.T) {
	c := newCloud(t, "aws-sim")
	// A pre-existing foreign bucket with the deployment's name blocks
	// installation cleanly.
	c.S3.CreateBucket("alice-notes")
	if _, err := Install(c, "alice", notesApp{}); err == nil {
		t.Fatal("install over a foreign bucket succeeded")
	}
}

func TestTCBRatioDegenerate(t *testing.T) {
	r := TCBReport{}
	if r.Ratio() != 0 {
		t.Fatalf("empty report ratio = %v", r.Ratio())
	}
}

func TestInstallQueueCollision(t *testing.T) {
	c := newCloud(t, "aws-sim")
	// A pre-existing queue with the deployment's name blocks install.
	if err := c.SQS.CreateQueue("alice-notes-events"); err != nil {
		t.Fatal(err)
	}
	if _, err := Install(c, "alice", notesApp{}); err == nil {
		t.Fatal("install over a foreign queue succeeded")
	}
}

func TestInstallKeyCollision(t *testing.T) {
	c := newCloud(t, "aws-sim")
	if err := c.KMS.CreateKey("alice-notes", false); err != nil {
		t.Fatal(err)
	}
	if _, err := Install(c, "alice", notesApp{}); err == nil {
		t.Fatal("install over a foreign key succeeded")
	}
}

func TestDeleteWithoutData(t *testing.T) {
	c := newCloud(t, "aws-sim")
	d := install(t, c, "alice")
	d.Invoke(d.ClientContext(), "put", []byte("keep me"))
	if err := d.Delete(false); err != nil {
		t.Fatal(err)
	}
	// Code and queues are gone, but the encrypted data and the key
	// remain for a later reinstall or export.
	if _, ok := c.Lambda.Function("alice-notes"); ok {
		t.Error("function survived")
	}
	if !c.S3.BucketExists("alice-notes") {
		t.Error("bucket destroyed despite data=false")
	}
	if !c.KMS.KeyExists("alice-notes") {
		t.Error("key destroyed despite data=false")
	}
}

func TestAttestQuoteAfterDelete(t *testing.T) {
	c := newCloud(t, "aws-sim")
	d := install(t, c, "alice")
	d.Delete(true)
	if _, err := d.AttestQuote([]byte("n")); !errors.Is(err, ErrNotInstalled) {
		t.Fatalf("got %v, want ErrNotInstalled", err)
	}
}

func TestMigrateDestinationCollision(t *testing.T) {
	src := newCloud(t, "src")
	dst := newCloud(t, "dst")
	d := install(t, src, "alice")
	// The destination already has a deployment under the same name.
	install(t, dst, "alice")
	if _, err := Migrate(d, dst, true); err == nil {
		t.Fatal("migration into an occupied destination succeeded")
	}
	// Source is untouched by the failed migration.
	if !src.S3.BucketExists("alice-notes") {
		t.Fatal("failed migration destroyed the source")
	}
}

func TestMigrateKeepSource(t *testing.T) {
	src := newCloud(t, "src")
	dst := newCloud(t, "dst")
	d := install(t, src, "alice")
	d.Invoke(d.ClientContext(), "put", []byte("copied"))
	nd, err := Migrate(d, dst, false) // keep the source data
	if err != nil {
		t.Fatal(err)
	}
	// Both sides hold the ciphertext; the source deployment's code is
	// gone but its data and key remain.
	if !src.S3.BucketExists("alice-notes") || !src.KMS.KeyExists("alice-notes") {
		t.Fatal("deleteSource=false removed source data")
	}
	resp, _, err := nd.Invoke(nd.ClientContext(), "get", nil)
	if err != nil || string(resp.Body) != "copied" {
		t.Fatalf("destination read: %v %q", err, resp.Body)
	}
}
