package core

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/s3"
	"repro/internal/cloudsim/sim"
	"repro/internal/crypto/envelope"
)

// denyRoleAction adds an explicit deny of action on every resource to
// role, and returns a func that restores the role.
func denyRoleAction(t *testing.T, c *Cloud, role, action string) (restore func()) {
	t.Helper()
	r, ok := c.IAM.Role(role)
	if !ok {
		t.Fatalf("no role %q", role)
	}
	orig := *r
	denied := orig
	denied.Policies = append(append([]iam.Policy(nil), orig.Policies...), iam.Policy{
		Name:       "deny-" + action,
		Statements: []iam.Statement{iam.DenyStatement([]string{action}, []string{"*"})},
	})
	if err := c.IAM.PutRole(&denied); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := c.IAM.PutRole(&orig); err != nil {
			t.Fatal(err)
		}
	}
}

// Load's contract: a missing object is not found, an unreadable one is
// an error, and an object sealed under any other name does not open.
func TestVaultLoad(t *testing.T) {
	c := newCloud(t, "aws-sim")
	d := install(t, c, "alice")

	resp, _, err := d.Invoke(d.ClientContext(), "get", nil)
	if err != nil || resp.Status != 404 {
		t.Fatalf("missing note: status %d, err %v; want 404 and no error", resp.Status, err)
	}

	secret := []byte("vault round trip")
	if resp, _, err := d.Invoke(d.ClientContext(), "put", secret); err != nil || resp.Status != 200 {
		t.Fatalf("put: %v status %d", err, resp.Status)
	}
	resp, _, err = d.Invoke(d.ClientContext(), "get", nil)
	if err != nil || resp.Status != 200 || !bytes.Equal(resp.Body, secret) {
		t.Fatalf("get: status %d, err %v, body %q", resp.Status, err, resp.Body)
	}

	restore := denyRoleAction(t, c, d.Role, s3.ActionGet)
	resp, _, err = d.Invoke(d.ClientContext(), "get", nil)
	if !errors.Is(err, iam.ErrDenied) || resp.Status != 500 {
		t.Fatalf("denied read: status %d, err %v; want 500 and ErrDenied", resp.Status, err)
	}
	restore()

	// A blob sealed under the deployment key for another name, put
	// where the note lives, is refused: aad = storage name.
	admin := &sim.Context{Principal: d.Role}
	raw, err := c.KMS.Decrypt(admin, d.WrappedKey)
	if err != nil {
		t.Fatal(err)
	}
	key, err := envelope.NewKey(raw)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := key.Seal(secret, []byte("elsewhere"))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.S3.Put(admin, d.Bucket, "note", moved); err != nil {
		t.Fatal(err)
	}
	resp, _, err = d.Invoke(d.ClientContext(), "get", nil)
	if !errors.Is(err, envelope.ErrCorrupt) || resp.Status != 500 {
		t.Fatalf("moved blob: status %d, err %v; want 500 and ErrCorrupt", resp.Status, err)
	}
}

// loadProbe is a test app whose "measure" op counts, inside one
// invocation, the allocations of a Vault.Load of the note and of the
// Get under it.
type loadProbe struct{ load, get *float64 }

func (loadProbe) Name() string  { return "probe" }
func (loadProbe) Spec() AppSpec { return notesApp{}.Spec() }
func (p loadProbe) Handler() lambda.Handler {
	return func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
		v, err := OpenVault(env)
		if err != nil {
			return lambda.Response{Status: 500}, err
		}
		if ev.Op == "put" {
			return lambda.Response{Status: 200}, v.Put("note", ev.Body)
		}
		var lerr error
		*p.load = testing.AllocsPerRun(20, func() {
			if _, found, err := v.Load("note"); !found || err != nil {
				lerr = fmt.Errorf("load: found %v, %v", found, err)
			}
		})
		*p.get = testing.AllocsPerRun(20, func() {
			if _, found, err := Get(env, "note"); !found || err != nil {
				lerr = fmt.Errorf("get: found %v, %v", found, err)
			}
		})
		return lambda.Response{Status: 200}, lerr
	}
}

// A warm Vault.Load opens into the container's arena: it allocates
// exactly what the Get under it allocates, nothing for the plaintext.
// The first invocations size the arena for the measuring loop's loads;
// the third is measured.
func TestVaultLoadWarmAllocs(t *testing.T) {
	c := newCloud(t, "aws-sim")
	var load, get float64
	d, err := Install(c, "alice", loadProbe{load: &load, get: &get})
	if err != nil {
		t.Fatal(err)
	}
	if resp, _, err := d.Invoke(d.ClientContext(), "put", bytes.Repeat([]byte("sealed state "), 1000)); err != nil || resp.Status != 200 {
		t.Fatalf("put: status %d, %v", resp.Status, err)
	}
	for run := 0; run < 3; run++ {
		if resp, _, err := d.Invoke(d.ClientContext(), "measure", nil); err != nil || resp.Status != 200 {
			t.Fatalf("measure: status %d, %v", resp.Status, err)
		}
	}
	if load != get {
		t.Fatalf("warm Vault.Load: %v allocs, its Get %v: want exactly equal, the plaintext in the arena", load, get)
	}
}

// ClientContext is one allocation, the context and its cursor
// together, acting as the client role on a fresh external timeline at
// the cloud clock's now.
func TestClientContextAllocs(t *testing.T) {
	c := newCloud(t, "aws-sim")
	d, err := Install(c, "alice", notesApp{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := d.ClientContext()
	if ctx.Principal != d.ClientRole || ctx.App != d.AppName || ctx.Region != c.Region || !ctx.External {
		t.Errorf("ClientContext = %+v", ctx)
	}
	if ctx.Cursor == nil || !ctx.Now().Equal(c.Clock.Now()) || ctx.Cursor.Elapsed() != 0 {
		t.Errorf("ClientContext cursor at %v (elapsed %v), want a fresh one at %v", ctx.Now(), ctx.Cursor.Elapsed(), c.Clock.Now())
	}
	if n := testing.AllocsPerRun(100, func() { d.ClientContext() }); n != 1 {
		t.Errorf("ClientContext: %v allocs, want exactly 1", n)
	}
}
