package s3

import (
	"bytes"
	"encoding/base64"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/sim"
	"repro/internal/crypto/envelope"
	"repro/internal/pricing"
)

type fixture struct {
	iam   *iam.Service
	meter *pricing.Meter
	clk   *clock.Virtual
	s3    *Service
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{iam: iam.New(), meter: pricing.NewMeter(), clk: clock.NewVirtual()}
	f.s3 = New(f.iam, f.meter, netsim.NewDefaultModel(), f.clk)
	if err := f.s3.CreateBucket("alice-chat"); err != nil {
		t.Fatal(err)
	}
	err := f.iam.PutRole(&iam.Role{
		Name: "chat-fn",
		Policies: []iam.Policy{{
			Name: "bucket-access",
			Statements: []iam.Statement{
				iam.AllowStatement([]string{"s3:*"}, []string{"bucket/alice-chat", "bucket/alice-chat/*"}),
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *fixture) ctx() *sim.Context {
	return &sim.Context{
		Principal: "chat-fn",
		App:       "chat",
		Region:    "us-west-2",
		Cursor:    sim.NewCursor(clock.Epoch),
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	data := []byte("ciphertext bytes")
	if err := f.s3.Put(ctx, "alice-chat", "room/1", data); err != nil {
		t.Fatal(err)
	}
	obj, err := f.s3.Get(ctx, "alice-chat", "room/1")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(obj.Data, data) {
		t.Fatalf("Get returned %q", obj.Data)
	}
	if &obj.Data[0] != &data[0] {
		t.Fatal("Get returned a copy; the store owns data and returns it as stored")
	}
	if obj.Version == 0 {
		t.Fatal("object has no version")
	}
	if !obj.Modified.Equal(clock.Epoch) {
		t.Fatalf("Modified = %v, want clock epoch", obj.Modified)
	}
}

// mustPanicNaming runs read and requires it to panic with a message
// containing want.
func mustPanicNaming(t *testing.T, want string, read func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg, _ := recover().(string)
		if !strings.Contains(msg, want) {
			t.Fatalf("read after a write into a stored payload: panic %q, want one naming %q", msg, want)
		}
	}()
	read()
}

// Objects are immutable: Get returns the stored slice, so a write into
// it, or into data after Put took it, is caught at the next read,
// overwrite or delete.
func TestWriteIntoStoredObjectPanics(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	if err := f.s3.Put(ctx, "alice-chat", "k", []byte("original")); err != nil {
		t.Fatal(err)
	}
	obj, err := f.s3.Get(ctx, "alice-chat", "k")
	if err != nil {
		t.Fatal(err)
	}
	obj.Data[0] = 'X'
	mustPanicNaming(t, "s3 bucket alice-chat: k ", func() { f.s3.Get(ctx, "alice-chat", "k") })

	data := []byte("handed over")
	if err := f.s3.Put(ctx, "alice-chat", "share/file", data); err != nil {
		t.Fatal(err)
	}
	token, err := f.s3.Presign("chat-fn", "alice-chat", "share/file", clock.Epoch.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 'X'
	mustPanicNaming(t, "s3 bucket alice-chat: share/file ", func() { f.s3.GetPresigned(ctx, token) })
	mustPanicNaming(t, "s3 bucket alice-chat: share/file ", func() { f.s3.Get(ctx, "alice-chat", "share/file") })

	// A read-modify-write that scribbles on what it read is caught when
	// it writes back.
	if err := f.s3.Put(ctx, "alice-chat", "room", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if obj, err = f.s3.Get(ctx, "alice-chat", "room"); err != nil {
		t.Fatal(err)
	}
	obj.Data[1] = '2'
	mustPanicNaming(t, "s3 bucket alice-chat: room ", func() { f.s3.Put(ctx, "alice-chat", "room", []byte("v3")) })
	mustPanicNaming(t, "s3 bucket alice-chat: room ", func() { f.s3.Delete(ctx, "alice-chat", "room") })
}

func TestPutOverwriteBumpsVersion(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	f.s3.Put(ctx, "alice-chat", "k", []byte("v1"))
	o1, _ := f.s3.Get(ctx, "alice-chat", "k")
	f.s3.Put(ctx, "alice-chat", "k", []byte("v2"))
	o2, _ := f.s3.Get(ctx, "alice-chat", "k")
	if o2.Version <= o1.Version {
		t.Fatalf("version did not advance: %d then %d", o1.Version, o2.Version)
	}
	if string(o2.Data) != "v2" {
		t.Fatalf("overwrite lost: %q", o2.Data)
	}
}

func TestGetMissing(t *testing.T) {
	f := newFixture(t)
	if _, err := f.s3.Get(f.ctx(), "alice-chat", "nope"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("got %v, want ErrNoSuchKey", err)
	}
	if _, err := f.s3.Get(f.ctx(), "no-bucket", "k"); !errors.Is(err, iam.ErrDenied) {
		// The role has no grant on other buckets: IAM denies first.
		t.Fatalf("got %v, want ErrDenied", err)
	}
}

func TestDeleteIdempotent(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	f.s3.Put(ctx, "alice-chat", "k", []byte("x"))
	if err := f.s3.Delete(ctx, "alice-chat", "k"); err != nil {
		t.Fatal(err)
	}
	if err := f.s3.Delete(ctx, "alice-chat", "k"); err != nil {
		t.Fatalf("second delete errored: %v", err)
	}
	if _, err := f.s3.Get(ctx, "alice-chat", "k"); !errors.Is(err, ErrNoSuchKey) {
		t.Fatal("object survived delete")
	}
}

func TestListPrefix(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	for _, k := range []string{"room/2", "room/1", "meta/config"} {
		f.s3.Put(ctx, "alice-chat", k, []byte("x"))
	}
	keys, err := f.s3.List(ctx, "alice-chat", "room/")
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "room/1" || keys[1] != "room/2" {
		t.Fatalf("List = %v", keys)
	}
	all, _ := f.s3.List(ctx, "alice-chat", "")
	if len(all) != 3 {
		t.Fatalf("List all = %v", all)
	}
}

func TestIAMDeniesForeignBucket(t *testing.T) {
	f := newFixture(t)
	f.s3.CreateBucket("bob-mail")
	if err := f.s3.Put(f.ctx(), "bob-mail", "k", []byte("x")); !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("foreign bucket put: got %v, want ErrDenied", err)
	}
}

func TestBucketLifecycle(t *testing.T) {
	f := newFixture(t)
	if err := f.s3.CreateBucket("alice-chat"); !errors.Is(err, ErrBucketExists) {
		t.Fatalf("duplicate create: %v", err)
	}
	if err := f.s3.CreateBucket(""); err == nil {
		t.Fatal("empty bucket name accepted")
	}
	if err := f.s3.CreateBucket("a/b"); err == nil {
		t.Fatal("slash in bucket name accepted")
	}
	f.s3.Put(f.ctx(), "alice-chat", "k", []byte("x"))
	if err := f.s3.DeleteBucket("alice-chat", false); !errors.Is(err, ErrBucketNotEmpty) {
		t.Fatalf("non-empty delete: %v", err)
	}
	if err := f.s3.DeleteBucket("alice-chat", true); err != nil {
		t.Fatal(err)
	}
	if f.s3.BucketExists("alice-chat") {
		t.Fatal("bucket survived forced delete")
	}
	if err := f.s3.DeleteBucket("alice-chat", true); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("delete absent bucket: %v", err)
	}
}

func TestRequestsMetered(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	f.s3.Put(ctx, "alice-chat", "k", []byte("x"))
	f.s3.Get(ctx, "alice-chat", "k")
	f.s3.Get(ctx, "alice-chat", "k")
	if got := f.meter.TotalFor(pricing.S3PutRequests, "chat"); got != 1 {
		t.Fatalf("PUT requests = %v, want 1", got)
	}
	if got := f.meter.TotalFor(pricing.S3GetRequests, "chat"); got != 2 {
		t.Fatalf("GET requests = %v, want 2", got)
	}
}

func TestExternalGetMetersTransferOut(t *testing.T) {
	f := newFixture(t)
	internal := f.ctx()
	payload := make([]byte, 2_000_000) // 2 MB
	f.s3.Put(internal, "alice-chat", "big", payload)

	f.s3.Get(internal, "alice-chat", "big")
	if got := f.meter.Total(pricing.TransferOutGB); got != 0 {
		t.Fatalf("internal GET billed transfer: %v GB", got)
	}

	external := f.ctx()
	external.External = true
	f.s3.Get(external, "alice-chat", "big")
	if got := f.meter.Total(pricing.TransferOutGB); got != 0.002 {
		t.Fatalf("external GET transfer = %v GB, want 0.002", got)
	}
}

func TestMemoryCoupledLatency(t *testing.T) {
	// The §6.2 observation: the same S3 call is much slower from a
	// 128 MB container than from a 448 MB one.
	f := newFixture(t)
	data := make([]byte, 256<<10)
	f.s3.Put(f.ctx(), "alice-chat", "k", data)

	elapsed := func(memMB int) time.Duration {
		ctx := f.ctx()
		ctx.FunctionMemMB = memMB
		if _, err := f.s3.Get(ctx, "alice-chat", "k"); err != nil {
			t.Fatal(err)
		}
		return ctx.Cursor.Elapsed()
	}
	var small, ref time.Duration
	// Average over several calls to smooth sampling noise.
	for i := 0; i < 32; i++ {
		small += elapsed(128)
		ref += elapsed(448)
	}
	if float64(small) < 1.8*float64(ref) {
		t.Fatalf("128 MB calls (%v) not significantly slower than 448 MB (%v)", small, ref)
	}
}

func TestStorageAccounting(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	f.s3.CreateBucket("other")
	f.iam.PutRole(&iam.Role{Name: "admin", Policies: []iam.Policy{{
		Name:       "all",
		Statements: []iam.Statement{iam.AllowStatement([]string{"*"}, []string{"*"})},
	}}})
	admin := &sim.Context{Principal: "admin", Cursor: sim.NewCursor(clock.Epoch)}

	f.s3.Put(ctx, "alice-chat", "a", make([]byte, 1000))
	f.s3.Put(admin, "other", "b", make([]byte, 500))
	if got := f.s3.StorageBytes("alice-chat"); got != 1000 {
		t.Fatalf("bucket bytes = %d", got)
	}
	if got := f.s3.StorageBytes(""); got != 1500 {
		t.Fatalf("total bytes = %d", got)
	}

	// Accrue one full month: GB-months must equal the stored GB.
	f.s3.AccrueStorage(pricing.Month, "chat")
	if got := f.meter.Total(pricing.S3StorageGBMo); got != 1500.0/1e9 {
		t.Fatalf("accrued %v GB-months", got)
	}
}

func TestSealedWritesPolicy(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	if err := f.s3.SetRequireSealed("alice-chat", true); err != nil {
		t.Fatal(err)
	}
	// Plaintext is rejected.
	if err := f.s3.Put(ctx, "alice-chat", "k", []byte("plaintext secret")); !errors.Is(err, ErrPlaintextRejected) {
		t.Fatalf("plaintext put: got %v, want ErrPlaintextRejected", err)
	}
	// Sealed ciphertext is accepted.
	key, err := envelope.NewDataKey()
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := envelope.Seal(key, []byte("secret"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.s3.Put(ctx, "alice-chat", "k", sealed); err != nil {
		t.Fatal(err)
	}
	// Policy can be lifted.
	if err := f.s3.SetRequireSealed("alice-chat", false); err != nil {
		t.Fatal(err)
	}
	if err := f.s3.Put(ctx, "alice-chat", "k2", []byte("plain ok now")); err != nil {
		t.Fatal(err)
	}
	// Unknown bucket errors.
	if err := f.s3.SetRequireSealed("ghost", true); !errors.Is(err, ErrNoSuchBucket) {
		t.Fatalf("got %v, want ErrNoSuchBucket", err)
	}
}

func TestNilContextDenied(t *testing.T) {
	f := newFixture(t)
	if err := f.s3.Put(nil, "alice-chat", "k", []byte("x")); !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("nil ctx: got %v, want ErrDenied", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	f := newFixture(t)
	done := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func(n int) {
			defer func() { done <- struct{}{} }()
			ctx := f.ctx()
			for j := 0; j < 200; j++ {
				f.s3.Put(ctx, "alice-chat", "k", []byte("x"))
				f.s3.Get(ctx, "alice-chat", "k")
				f.s3.List(ctx, "alice-chat", "")
				f.s3.StorageBytes("")
			}
		}(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}

func TestPresignedDownload(t *testing.T) {
	f := newFixture(t)
	owner := f.ctx()
	payload := make([]byte, 100_000)
	if err := f.s3.Put(owner, "alice-chat", "share/file", payload); err != nil {
		t.Fatal(err)
	}
	token, err := f.s3.Presign("chat-fn", "alice-chat", "share/file", clock.Epoch.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}

	// A caller with NO principal at all fetches with the token.
	anon := &sim.Context{Cursor: sim.NewCursor(clock.Epoch), External: true}
	obj, err := f.s3.GetPresigned(anon, token)
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.Data) != len(payload) {
		t.Fatalf("got %d bytes", len(obj.Data))
	}
	// External egress is billed.
	if got := f.meter.Total(pricing.TransferOutGB); got != 0.0001 {
		t.Fatalf("transfer = %v GB, want 0.0001", got)
	}
}

func TestPresignRequiresAuthority(t *testing.T) {
	f := newFixture(t)
	f.s3.Put(f.ctx(), "alice-chat", "k", []byte("x"))
	// A principal without read access cannot mint a token.
	if _, err := f.s3.Presign("mallory", "alice-chat", "k", clock.Epoch.Add(time.Hour)); !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("got %v, want ErrDenied", err)
	}
}

func TestPresignedTokenExpiry(t *testing.T) {
	f := newFixture(t)
	f.s3.Put(f.ctx(), "alice-chat", "k", []byte("x"))
	token, err := f.s3.Presign("chat-fn", "alice-chat", "k", clock.Epoch.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	late := &sim.Context{Cursor: sim.NewCursor(clock.Epoch.Add(2 * time.Minute))}
	if _, err := f.s3.GetPresigned(late, token); !errors.Is(err, ErrTokenExpired) {
		t.Fatalf("got %v, want ErrTokenExpired", err)
	}
	// Before expiry it still works.
	early := &sim.Context{Cursor: sim.NewCursor(clock.Epoch.Add(30 * time.Second))}
	if _, err := f.s3.GetPresigned(early, token); err != nil {
		t.Fatal(err)
	}
}

func TestPresignedTokenForgeryRejected(t *testing.T) {
	f := newFixture(t)
	f.s3.Put(f.ctx(), "alice-chat", "k", []byte("x"))
	f.s3.CreateBucket("private")
	token, _ := f.s3.Presign("chat-fn", "alice-chat", "k", clock.Epoch.Add(time.Hour))

	// Garbage and truncations.
	for _, bad := range []string{"", "!!!", token[:len(token)/2]} {
		if _, err := f.s3.GetPresigned(f.ctx(), bad); !errors.Is(err, ErrBadToken) {
			t.Fatalf("token %q: got %v, want ErrBadToken", bad, err)
		}
	}
	// Re-targeting the token to another object breaks the MAC.
	raw, _ := base64.RawURLEncoding.DecodeString(token)
	forged := bytes.Replace(raw, []byte("share/file"), []byte("private"), 1)
	forged = bytes.Replace(forged, []byte("k\x00"), []byte("x\x00"), 1)
	if _, err := f.s3.GetPresigned(f.ctx(), base64.RawURLEncoding.EncodeToString(forged)); !errors.Is(err, ErrBadToken) {
		t.Fatalf("forged token: got %v, want ErrBadToken", err)
	}
	// Extending the expiry breaks the MAC too.
	parts := bytes.SplitN(raw, []byte{0}, 4)
	parts[2] = []byte("9999999999")
	extended := bytes.Join(parts, []byte{0})
	if _, err := f.s3.GetPresigned(f.ctx(), base64.RawURLEncoding.EncodeToString(extended)); !errors.Is(err, ErrBadToken) {
		t.Fatalf("extended token: got %v, want ErrBadToken", err)
	}
}

func TestPresignedMissingObject(t *testing.T) {
	f := newFixture(t)
	f.s3.Put(f.ctx(), "alice-chat", "gone", []byte("x"))
	token, _ := f.s3.Presign("chat-fn", "alice-chat", "gone", clock.Epoch.Add(time.Hour))
	f.s3.Delete(f.ctx(), "alice-chat", "gone")
	if _, err := f.s3.GetPresigned(f.ctx(), token); !errors.Is(err, ErrNoSuchKey) {
		t.Fatalf("got %v, want ErrNoSuchKey", err)
	}
}
