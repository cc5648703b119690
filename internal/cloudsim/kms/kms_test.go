package kms

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/sim"
	"repro/internal/crypto/envelope"
	"repro/internal/pricing"
)

var t0 = time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)

type fixture struct {
	iam   *iam.Service
	meter *pricing.Meter
	kms   *Service
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	f := &fixture{iam: iam.New(), meter: pricing.NewMeter()}
	f.kms = New(f.iam, f.meter, netsim.NewDefaultModel(), nil)
	if err := f.kms.CreateKey("alice-chat", false); err != nil {
		t.Fatal(err)
	}
	err := f.iam.PutRole(&iam.Role{
		Name: "chat-fn",
		Policies: []iam.Policy{{
			Name: "kms-access",
			Statements: []iam.Statement{
				iam.AllowStatement(
					[]string{ActionGenerateDataKey, ActionDecrypt},
					[]string{Resource("alice-chat")},
				),
			},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func (f *fixture) ctx() *sim.Context {
	return &sim.Context{Principal: "chat-fn", App: "chat", Region: "us-west-2", Cursor: sim.NewCursor(t0)}
}

func TestGenerateAndDecryptDataKey(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	pt, wrapped, err := f.kms.GenerateDataKey(ctx, "alice-chat")
	if err != nil {
		t.Fatal(err)
	}
	if len(pt) != envelope.KeySize {
		t.Fatalf("data key length %d", len(pt))
	}
	if bytes.Contains(wrapped, pt) {
		t.Fatal("plaintext data key leaked into wrapped blob")
	}
	got, err := f.kms.Decrypt(ctx, wrapped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatal("decrypted data key differs from generated one")
	}
}

func TestDecryptDeniedWithoutGrant(t *testing.T) {
	// The heart of the threat model: a principal without kms:Decrypt on
	// the master key must never receive the plaintext data key.
	f := newFixture(t)
	_, wrapped, err := f.kms.GenerateDataKey(f.ctx(), "alice-chat")
	if err != nil {
		t.Fatal(err)
	}
	attacker := &sim.Context{Principal: "attacker", Cursor: sim.NewCursor(t0)}
	if _, err := f.kms.Decrypt(attacker, wrapped); !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("attacker decrypt: got %v, want ErrDenied", err)
	}
	// Even a real role without the grant is denied.
	f.iam.PutRole(&iam.Role{Name: "other-fn"})
	other := &sim.Context{Principal: "other-fn", Cursor: sim.NewCursor(t0)}
	if _, err := f.kms.Decrypt(other, wrapped); !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("ungratned role decrypt: got %v, want ErrDenied", err)
	}
}

func TestGenerateDeniedForForeignKey(t *testing.T) {
	f := newFixture(t)
	if err := f.kms.CreateKey("bob-chat", false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := f.kms.GenerateDataKey(f.ctx(), "bob-chat"); !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("foreign key: got %v, want ErrDenied", err)
	}
}

func TestCreateKeyValidation(t *testing.T) {
	f := newFixture(t)
	if err := f.kms.CreateKey("", false); err == nil {
		t.Fatal("empty key id accepted")
	}
	if err := f.kms.CreateKey("alice-chat", false); err == nil {
		t.Fatal("duplicate key id accepted")
	}
}

func TestCustomerManagedKeyMetersMonthlyCharge(t *testing.T) {
	f := newFixture(t)
	before := f.meter.Total(pricing.KMSCustomerKeys)
	if err := f.kms.CreateKey("cmk", true); err != nil {
		t.Fatal(err)
	}
	if got := f.meter.Total(pricing.KMSCustomerKeys) - before; got != 1 {
		t.Fatalf("customer key months metered = %v, want 1", got)
	}
	// The default (provider-managed) key in the fixture metered nothing.
	if before != 0 {
		t.Fatalf("provider-managed key metered %v key-months", before)
	}
}

func TestDeleteKeyMakesDataUnrecoverable(t *testing.T) {
	f := newFixture(t)
	_, wrapped, err := f.kms.GenerateDataKey(f.ctx(), "alice-chat")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.kms.DeleteKey("alice-chat"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.kms.Decrypt(f.ctx(), wrapped); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("decrypt after delete: got %v, want ErrKeyNotFound", err)
	}
	if err := f.kms.DeleteKey("alice-chat"); !errors.Is(err, ErrKeyNotFound) {
		t.Fatalf("double delete: got %v, want ErrKeyNotFound", err)
	}
	if f.kms.KeyExists("alice-chat") {
		t.Fatal("key still exists after delete")
	}
}

func TestDecryptMalformedBlob(t *testing.T) {
	f := newFixture(t)
	for _, blob := range [][]byte{nil, {1}, {0, 200, 'x'}} {
		if _, err := f.kms.Decrypt(f.ctx(), blob); !errors.Is(err, ErrBadBlob) {
			t.Fatalf("blob %v: got %v, want ErrBadBlob", blob, err)
		}
	}
}

func TestDecryptTamperedBlob(t *testing.T) {
	f := newFixture(t)
	_, wrapped, err := f.kms.GenerateDataKey(f.ctx(), "alice-chat")
	if err != nil {
		t.Fatal(err)
	}
	wrapped[len(wrapped)-1] ^= 0xff
	if _, err := f.kms.Decrypt(f.ctx(), wrapped); err == nil {
		t.Fatal("tampered blob decrypted")
	}
}

func TestImportWrapped(t *testing.T) {
	f := newFixture(t)
	dk, err := envelope.NewDataKey()
	if err != nil {
		t.Fatal(err)
	}
	wrapped, err := f.kms.ImportWrapped(f.ctx(), dk, "alice-chat")
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.kms.Decrypt(f.ctx(), wrapped)
	if err != nil || !bytes.Equal(got, dk) {
		t.Fatalf("import round trip failed: %v", err)
	}
}

func TestAuditLogRecordsDenials(t *testing.T) {
	f := newFixture(t)
	f.kms.GenerateDataKey(f.ctx(), "alice-chat")
	attacker := &sim.Context{Principal: "mallory", Cursor: sim.NewCursor(t0)}
	f.kms.GenerateDataKey(attacker, "alice-chat")

	audit := f.kms.Audit()
	if len(audit) != 2 {
		t.Fatalf("audit entries = %d, want 2", len(audit))
	}
	if !audit[0].Allowed || audit[0].Principal != "chat-fn" {
		t.Fatalf("first entry wrong: %+v", audit[0])
	}
	if audit[1].Allowed || audit[1].Principal != "mallory" {
		t.Fatalf("denial not audited: %+v", audit[1])
	}
}

func TestCallsAdvanceCursorAndMeter(t *testing.T) {
	f := newFixture(t)
	ctx := f.ctx()
	f.kms.GenerateDataKey(ctx, "alice-chat")
	if ctx.Cursor.Elapsed() == 0 {
		t.Fatal("KMS call consumed no simulated time")
	}
	if got := f.meter.TotalFor(pricing.KMSRequests, "chat"); got != 1 {
		t.Fatalf("metered requests for chat = %v, want 1", got)
	}
}

func TestNilContextSafe(t *testing.T) {
	f := newFixture(t)
	// Administrative calls may pass a nil context; they are denied (no
	// principal) but must not panic.
	if _, _, err := f.kms.GenerateDataKey(nil, "alice-chat"); !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("nil ctx: got %v, want ErrDenied", err)
	}
}
