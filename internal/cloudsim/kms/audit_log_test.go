package kms

import (
	"errors"
	"testing"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/logs"
)

// The audit log's structured twin: with a log service wired at
// construction, every AuditEntry is also emitted into the "kms/audit"
// group, in order, with matching fields — allowed and denied calls
// alike.
func TestAuditEntriesFlowIntoLogGroup(t *testing.T) {
	clk := clock.NewVirtual()
	lg := logs.New(clk)
	f := newFixtureWith(t, clk, lg)

	ctx := f.ctx()
	if _, _, err := f.kms.GenerateDataKey(ctx, "alice-chat"); err != nil {
		t.Fatal(err)
	}
	// A denied call (no role) must audit and log too.
	bad := f.ctx()
	bad.Principal = "mallory"
	if _, _, err := f.kms.GenerateDataKey(bad, "alice-chat"); !errors.Is(err, iam.ErrDenied) {
		t.Fatalf("err = %v, want ErrDenied", err)
	}

	audit := f.kms.Audit()
	evs := lg.Tail(logs.LogGroupKMSAudit, 0)
	if len(audit) != 2 || len(evs) != 2 {
		t.Fatalf("audit entries = %d, log events = %d, want 2 and 2", len(audit), len(evs))
	}
	for i, e := range evs {
		want := audit[i]
		if !e.Time.Equal(want.Time) {
			t.Errorf("event %d time = %v, audit %v", i, e.Time, want.Time)
		}
		if e.Fields["principal"] != want.Principal ||
			e.Fields["action"] != want.Action ||
			e.Fields["key_id"] != want.KeyID {
			t.Errorf("event %d fields = %v, audit entry %+v", i, e.Fields, want)
		}
	}
	if evs[0].Fields["allowed"] != "true" || evs[1].Fields["allowed"] != "false" {
		t.Fatalf("allowed fields = %q, %q", evs[0].Fields["allowed"], evs[1].Fields["allowed"])
	}

	// The evidence trail is queryable: count denials by principal.
	res, err := lg.Query(logs.LogGroupKMSAudit,
		`filter allowed = "false" | stats count(*) as denied by principal`,
		time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Value(0, "principal") != "mallory" || res.Value(0, "denied") != "1" {
		t.Fatalf("denial query rows = %v", res.Rows)
	}
}

// Without a log service the audit log alone remains the record — the
// default for standalone service construction.
func TestAuditWithoutLogServiceStillRecords(t *testing.T) {
	f := newFixture(t)
	if _, _, err := f.kms.GenerateDataKey(f.ctx(), "alice-chat"); err != nil {
		t.Fatal(err)
	}
	if got := len(f.kms.Audit()); got != 1 {
		t.Fatalf("audit entries = %d, want 1", got)
	}
}

// The audit event is appended with no allocation of its own: a KMS
// call allocates exactly as often with the log group wired as without
// it.
func TestAuditLogAllocs(t *testing.T) {
	logged := newFixtureWith(t, clock.NewVirtual(), logs.New(clock.NewVirtual()))
	bare := newFixture(t)
	decrypt := func(f *fixture) func() {
		ctx := f.ctx()
		_, wrapped, err := f.kms.GenerateDataKey(ctx, "alice-chat")
		if err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, err := f.kms.Decrypt(ctx, wrapped); err != nil {
				t.Fatal(err)
			}
		}
	}
	base := testing.AllocsPerRun(500, decrypt(bare))
	if got := testing.AllocsPerRun(500, decrypt(logged)); got != base {
		t.Fatalf("a logged KMS call allocates %v times, an unlogged one %v: the audit event should allocate nothing", got, base)
	}
}
