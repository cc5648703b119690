package sealedbox

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/crypto/envelope"
)

func keys(t *testing.T) (PublicKey, PrivateKey) {
	t.Helper()
	pub, priv, err := GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	return pub, priv
}

func TestSealOpenRoundTrip(t *testing.T) {
	pub, priv := keys(t)
	pt := []byte("Subject: secret\r\n\r\nonly the private key reads this\r\n")
	blob, err := Seal(pub, pt, []byte("mail/000001"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(priv, blob, []byte("mail/000001"))
	if err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("round trip: %v %q", err, got)
	}
	if bytes.Contains(blob, pt) {
		t.Fatal("plaintext leaked into blob")
	}
}

func TestWrongRecipientCannotOpen(t *testing.T) {
	pub, _ := keys(t)
	_, otherPriv := keys(t)
	blob, err := Seal(pub, []byte("x"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(otherPriv, blob, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong key opened: %v", err)
	}
}

func TestWrongAADRejected(t *testing.T) {
	pub, priv := keys(t)
	blob, _ := Seal(pub, []byte("x"), []byte("path/a"))
	if _, err := Open(priv, blob, []byte("path/b")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong aad opened: %v", err)
	}
}

func TestTamperRejected(t *testing.T) {
	pub, priv := keys(t)
	blob, _ := Seal(pub, []byte("data"), nil)
	blob[len(blob)-1] ^= 0xff
	if _, err := Open(priv, blob, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered blob opened: %v", err)
	}
}

func TestGarbageRejected(t *testing.T) {
	_, priv := keys(t)
	if _, err := Open(priv, []byte("not a box"), nil); !errors.Is(err, ErrNotSealedBox) {
		t.Fatalf("got %v", err)
	}
	if _, err := Open(priv, append([]byte("DIY\x01P"), 1, 2, 3), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: %v", err)
	}
}

func TestSatisfiesSealedWritesPolicy(t *testing.T) {
	// Sealed boxes must pass the bucket policy's envelope.IsSealed
	// check (same magic, distinct tag), and raw envelope blobs must
	// not be mistaken for boxes.
	pub, _ := keys(t)
	blob, _ := Seal(pub, []byte("x"), nil)
	if !envelope.IsSealed(blob) {
		t.Fatal("sealed box fails the bucket policy")
	}
	raw, _ := envelope.NewDataKey()
	key, _ := envelope.NewKey(raw)
	env, _ := key.Seal([]byte("x"), nil)
	if IsSealedBox(env) {
		t.Fatal("envelope blob mistaken for a sealed box")
	}
}

func TestPublicKeyRoundTrip(t *testing.T) {
	pub, priv := keys(t)
	parsed, err := ParsePublicKey(pub.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := Seal(parsed, []byte("via parsed key"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(priv, blob, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePublicKey([]byte("short")); err == nil {
		t.Fatal("bad public key parsed")
	}
}

func TestSealRandomized(t *testing.T) {
	pub, _ := keys(t)
	a, _ := Seal(pub, []byte("same"), nil)
	b, _ := Seal(pub, []byte("same"), nil)
	if bytes.Equal(a, b) {
		t.Fatal("two seals identical: ephemeral key or nonce reuse")
	}
}

func TestRoundTripProperty(t *testing.T) {
	pub, priv := keys(t)
	f := func(pt, aad []byte) bool {
		blob, err := Seal(pub, pt, aad)
		if err != nil {
			return false
		}
		got, err := Open(priv, blob, aad)
		return err == nil && bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
