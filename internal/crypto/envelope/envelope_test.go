package envelope

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func mustKey(t *testing.T) []byte {
	t.Helper()
	k, err := NewDataKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSealOpenRoundTrip(t *testing.T) {
	key := mustKey(t)
	pt := []byte("alice: hello bob, this chat log is private")
	aad := []byte("bucket/alice-chat/room1")
	blob, err := Seal(key, pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Open(key, blob, aad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, pt) {
		t.Fatalf("round trip mismatch: %q", got)
	}
}

func TestSealedBlobIsNotPlaintext(t *testing.T) {
	// The paper's core privacy property: data at rest must be
	// ciphertext. The plaintext must not appear as a substring of the
	// sealed blob.
	key := mustKey(t)
	pt := []byte("extremely secret message body 1234567890")
	blob, err := Seal(key, pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(blob, pt) {
		t.Fatal("plaintext leaked into sealed blob")
	}
	if !IsSealed(blob) {
		t.Fatal("sealed blob does not carry the envelope header")
	}
}

func TestOpenWrongKey(t *testing.T) {
	k1, k2 := mustKey(t), mustKey(t)
	blob, err := Seal(k1, []byte("data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(k2, blob, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong key: got %v, want ErrCorrupt", err)
	}
}

func TestOpenWrongAAD(t *testing.T) {
	// Binding the storage path as AAD means a ciphertext moved to a
	// different path fails to open — swap attacks are detected.
	key := mustKey(t)
	blob, err := Seal(key, []byte("data"), []byte("path/a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(key, blob, []byte("path/b")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong aad: got %v, want ErrCorrupt", err)
	}
}

func TestOpenTamperedCiphertext(t *testing.T) {
	key := mustKey(t)
	blob, err := Seal(key, []byte("data that matters"), nil)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if _, err := Open(key, blob, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered: got %v, want ErrCorrupt", err)
	}
}

func TestOpenNotSealed(t *testing.T) {
	key := mustKey(t)
	if _, err := Open(key, []byte("plaintext junk"), nil); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("got %v, want ErrNotSealed", err)
	}
	if _, err := Open(key, nil, nil); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("nil blob: got %v, want ErrNotSealed", err)
	}
}

func TestOpenTruncated(t *testing.T) {
	key := mustKey(t)
	blob, err := Seal(key, []byte("data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(key, blob[:6], nil); err == nil {
		t.Fatal("truncated blob opened")
	}
}

func TestBadKeySize(t *testing.T) {
	if _, err := Seal([]byte("short"), []byte("x"), nil); !errors.Is(err, ErrBadKeySize) {
		t.Fatalf("got %v, want ErrBadKeySize", err)
	}
	if _, err := Open([]byte("short"), append([]byte("DIY\x01"), make([]byte, 40)...), nil); !errors.Is(err, ErrBadKeySize) {
		t.Fatalf("got %v, want ErrBadKeySize", err)
	}
}

func TestNoncesUnique(t *testing.T) {
	key := mustKey(t)
	a, _ := Seal(key, []byte("x"), nil)
	b, _ := Seal(key, []byte("x"), nil)
	if bytes.Equal(a, b) {
		t.Fatal("two seals of the same plaintext are identical: nonce reuse")
	}
}

func TestIsSealed(t *testing.T) {
	if IsSealed(nil) || IsSealed([]byte("DI")) || IsSealed([]byte("PLAINTEXT")) {
		t.Fatal("IsSealed false positives")
	}
	if !IsSealed([]byte{'D', 'I', 'Y', 1, 0, 0}) {
		t.Fatal("IsSealed false negative")
	}
}

func TestZero(t *testing.T) {
	k := mustKey(t)
	Zero(k)
	for _, b := range k {
		if b != 0 {
			t.Fatal("Zero left residue")
		}
	}
}

func TestSealOpenProperty(t *testing.T) {
	// Property: any payload round-trips under any aad.
	key := mustKey(t)
	f := func(pt, aad []byte) bool {
		blob, err := Seal(key, pt, aad)
		if err != nil {
			return false
		}
		got, err := Open(key, blob, aad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
