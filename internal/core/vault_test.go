package core

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cloudsim/iam"
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
