package dynamo

import (
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
	iam    *iam.Service
	meter  *pricing.Meter
	dynamo *Service
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{iam: iam.New(), meter: pricing.NewMeter()}
	f.dynamo = New(f.iam, f.meter, netsim.NewDefaultModel(), clock.NewVirtual())
	if err := f.dynamo.CreateTable("alice-chat"); err != nil {
		t.Fatal(err)
	}
	err := f.iam.PutRole(&iam.Role{
		Name: "fn",
		Policies: []iam.Policy{{
			Name: "table-access",
			Statements: []iam.Statement{
				iam.AllowStatement([]string{"dynamodb:*"}, []string{"table/alice-chat"}),
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *fixture) ctx() *sim.Context {
	return &sim.Context{Principal: "fn", App: "chat", Cursor: sim.NewCursor(clock.Epoch)}
}

func TestPutGetRoundTrip(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	if err := f.dynamo.Put(ctx, "alice-chat", "room", []byte("v")); err != nil {
		t.Fatal(err)
	}
	it, err := f.dynamo.Get(ctx, "alice-chat", "room")
	if err != nil || string(it.Value) != "v" {
		t.Fatalf("get: %v %q", err, it.Value)
	}
	if it.Version == 0 || !it.Modified.Equal(ctx.Cursor.Now()) && it.Modified.IsZero() {
		t.Fatalf("metadata: %+v", it)
	}
}

// Item values are immutable: Get returns the stored slice, so a write
// into it, or into a value after Put took it, is caught at the next
// read or overwrite.
func TestWriteIntoStoredValuePanics(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	if err := f.dynamo.Put(ctx, "alice-chat", "room", []byte("v")); err != nil {
		t.Fatal(err)
	}
	it, err := f.dynamo.Get(ctx, "alice-chat", "room")
	if err != nil {
		t.Fatal(err)
	}
	it.Value[0] = 'X'
	mustPanicNaming(t, "dynamo table alice-chat: room ", func() { f.dynamo.Get(ctx, "alice-chat", "room") })

	value := []byte("handed over")
	if err := f.dynamo.PutIfVersion(ctx, "alice-chat", "k", value, 0); err != nil {
		t.Fatal(err)
	}
	value[0] = 'X'
	mustPanicNaming(t, "dynamo table alice-chat: k ", func() { f.dynamo.Get(ctx, "alice-chat", "k") })
	mustPanicNaming(t, "dynamo table alice-chat: k ", func() { f.dynamo.PutIfVersion(ctx, "alice-chat", "k", []byte("v2"), 1) })
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

func TestGetMissing(t *testing.T) {
	f := newFixture(t)
	if _, err := f.dynamo.Get(f.ctx(), "alice-chat", "nope"); !errors.Is(err, ErrNoSuchItem) {
		t.Fatalf("got %v, want ErrNoSuchItem", err)
	}
}

func TestConditionalWrites(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	// Create-if-absent.
	if err := f.dynamo.PutIfVersion(ctx, "alice-chat", "k", []byte("v1"), 0); err != nil {
		t.Fatal(err)
	}
	// Second create fails.
	if err := f.dynamo.PutIfVersion(ctx, "alice-chat", "k", []byte("v1b"), 0); !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("got %v, want ErrConditionFailed", err)
	}
	it, _ := f.dynamo.Get(ctx, "alice-chat", "k")
	// Update at the right version succeeds.
	if err := f.dynamo.PutIfVersion(ctx, "alice-chat", "k", []byte("v2"), it.Version); err != nil {
		t.Fatal(err)
	}
	// Update at the stale version fails (lost-update protection).
	if err := f.dynamo.PutIfVersion(ctx, "alice-chat", "k", []byte("v3"), it.Version); !errors.Is(err, ErrConditionFailed) {
		t.Fatalf("stale write: got %v, want ErrConditionFailed", err)
	}
	got, _ := f.dynamo.Get(ctx, "alice-chat", "k")
	if string(got.Value) != "v2" {
		t.Fatalf("value = %q", got.Value)
	}
}

func TestQueryPrefix(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	for _, k := range []string{"msg/2", "msg/1", "meta"} {
		f.dynamo.Put(ctx, "alice-chat", k, []byte("x"))
	}
	keys, err := f.dynamo.Query(ctx, "alice-chat", "msg/")
	if err != nil || len(keys) != 2 || keys[0] != "msg/1" {
		t.Fatalf("query: %v %v", err, keys)
	}
}

func TestIAMDenied(t *testing.T) {
	f := newFixture(t)
	evil := &sim.Context{Principal: "mallory", Cursor: sim.NewCursor(clock.Epoch)}
	if err := f.dynamo.Put(evil, "alice-chat", "k", []byte("x")); !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("got %v, want ErrDenied", err)
	}
}

func TestTableLifecycle(t *testing.T) {
	f := newFixture(t)
	if err := f.dynamo.CreateTable("alice-chat"); !errors.Is(err, ErrTableExists) {
		t.Fatalf("dup create: %v", err)
	}
	if err := f.dynamo.CreateTable("a/b"); err == nil {
		t.Fatal("bad name accepted")
	}
	if err := f.dynamo.DeleteTable("alice-chat"); err != nil {
		t.Fatal(err)
	}
	if f.dynamo.TableExists("alice-chat") {
		t.Fatal("table survived delete")
	}
	if err := f.dynamo.DeleteTable("alice-chat"); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestSealedPolicy(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	f.dynamo.SetRequireSealed("alice-chat", envelope.IsSealed)
	if err := f.dynamo.Put(ctx, "alice-chat", "k", []byte("plaintext")); !errors.Is(err, ErrPlaintextRejected) {
		t.Fatalf("got %v, want ErrPlaintextRejected", err)
	}
	raw, _ := envelope.NewDataKey()
	key, _ := envelope.NewKey(raw)
	sealed, _ := key.Seal([]byte("x"), nil)
	if err := f.dynamo.Put(ctx, "alice-chat", "k", sealed); err != nil {
		t.Fatal(err)
	}
	// Lift the policy.
	f.dynamo.SetRequireSealed("alice-chat", nil)
	if err := f.dynamo.Put(ctx, "alice-chat", "k2", []byte("ok now")); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityUnitsMetered(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	// A 3 KB write = 3 WCU; reading it back = 1 RCU (under 4 KB).
	f.dynamo.Put(ctx, "alice-chat", "k", make([]byte, 3<<10))
	f.dynamo.Get(ctx, "alice-chat", "k")
	if got := f.meter.TotalFor(pricing.DynamoWCU, "chat"); got != 3 {
		t.Fatalf("WCU = %v, want 3", got)
	}
	if got := f.meter.TotalFor(pricing.DynamoRCU, "chat"); got != 1 {
		t.Fatalf("RCU = %v, want 1", got)
	}
	// Pricing: well within the free 25-unit allowance.
	bill := pricing.Compute(pricing.Default2017(), f.meter)
	if bill.TotalOf(pricing.DynamoRCU, pricing.DynamoWCU) != 0 {
		t.Fatal("free tier not applied")
	}
}

func TestFasterThanS3(t *testing.T) {
	// The footnote's point: the same logical op is several times
	// faster on the table store.
	f := newFixture(t)
	dCtx := f.ctx()
	dCtx.FunctionMemMB = 448
	var dynamoTime, s3Median time.Duration
	for i := 0; i < 32; i++ {
		before := dCtx.Cursor.Elapsed()
		f.dynamo.Get(dCtx, "alice-chat", "absent") // latency applies regardless
		dynamoTime += dCtx.Cursor.Elapsed() - before
	}
	s3Median = netsim.DefaultParams().Hops[netsim.HopS3].Median * 32
	if dynamoTime*2 >= s3Median {
		t.Fatalf("dynamo 32 ops took %v, not ≪ S3's %v", dynamoTime, s3Median)
	}
}

func TestStorageBytes(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	f.dynamo.Put(ctx, "alice-chat", "a", make([]byte, 100))
	f.dynamo.Put(ctx, "alice-chat", "b", make([]byte, 50))
	if got := f.dynamo.StorageBytes("alice-chat"); got != 150 {
		t.Fatalf("bytes = %d", got)
	}
	if got := f.dynamo.StorageBytes(""); got != 150 {
		t.Fatalf("all bytes = %d", got)
	}
}

func TestCapacityUnitRounding(t *testing.T) {
	if readUnits(0) != 1 || readUnits(1) != 1 || readUnits(4096) != 1 || readUnits(4097) != 2 {
		t.Fatal("read unit rounding wrong")
	}
	if writeUnits(0) != 1 || writeUnits(1024) != 1 || writeUnits(1025) != 2 {
		t.Fatal("write unit rounding wrong")
	}
}
