package envelope

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func mustKey(t testing.TB) Key {
	t.Helper()
	raw, err := NewDataKey()
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKey(raw)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestSealOpenRoundTrip(t *testing.T) {
	key := mustKey(t)
	pt := []byte("alice: hello bob, this chat log is private")
	aad := []byte("bucket/alice-chat/room1")
	blob, err := key.Seal(pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	got, err := key.Open(blob, aad)
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
	blob, err := key.Seal(pt, nil)
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
	blob, err := k1.Seal([]byte("data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k2.Open(blob, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong key: got %v, want ErrCorrupt", err)
	}
}

func TestOpenWrongAAD(t *testing.T) {
	// Binding the storage path as AAD means a ciphertext moved to a
	// different path fails to open — swap attacks are detected.
	key := mustKey(t)
	blob, err := key.Seal([]byte("data"), []byte("path/a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := key.Open(blob, []byte("path/b")); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong aad: got %v, want ErrCorrupt", err)
	}
}

func TestOpenTamperedCiphertext(t *testing.T) {
	key := mustKey(t)
	blob, err := key.Seal([]byte("data that matters"), nil)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if _, err := key.Open(blob, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered: got %v, want ErrCorrupt", err)
	}
}

func TestOpenNotSealed(t *testing.T) {
	key := mustKey(t)
	if _, err := key.Open([]byte("plaintext junk"), nil); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("got %v, want ErrNotSealed", err)
	}
	if _, err := key.Open(nil, nil); !errors.Is(err, ErrNotSealed) {
		t.Fatalf("nil blob: got %v, want ErrNotSealed", err)
	}
}

func TestOpenTruncated(t *testing.T) {
	key := mustKey(t)
	blob, err := key.Seal([]byte("data"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := key.Open(blob[:6], nil); err == nil {
		t.Fatal("truncated blob opened")
	}
}

func TestBadKeySize(t *testing.T) {
	for _, raw := range [][]byte{nil, []byte("short"), make([]byte, KeySize-1), make([]byte, KeySize+1), make([]byte, 16)} {
		if _, err := NewKey(raw); !errors.Is(err, ErrBadKeySize) {
			t.Fatalf("%d-byte key: got %v, want ErrBadKeySize", len(raw), err)
		}
	}
}

func TestNoncesUnique(t *testing.T) {
	key := mustKey(t)
	a, _ := key.Seal([]byte("x"), nil)
	b, _ := key.Seal([]byte("x"), nil)
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
	k, err := NewDataKey()
	if err != nil {
		t.Fatal(err)
	}
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
		blob, err := key.Seal(pt, aad)
		if err != nil {
			return false
		}
		got, err := key.Open(blob, aad)
		if err != nil {
			return false
		}
		return bytes.Equal(got, pt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSealInPlaceRoundTrip(t *testing.T) {
	key := mustKey(t)
	aad := []byte("room")
	for _, pt := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("0123456789abcdef"), 64<<10/16+3)} {
		buf := append(NewBuffer(len(pt)), pt...)
		blob, err := key.SealInPlace(buf, aad)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != Header+len(pt)+Overhead {
			t.Fatalf("%d-byte plaintext sealed to %d bytes, want %d", len(pt), len(blob), Header+len(pt)+Overhead)
		}
		if &blob[0] != &buf[0] {
			t.Fatalf("%d-byte plaintext: sealed into a new buffer despite spare capacity", len(pt))
		}
		if !IsSealed(blob) {
			t.Fatal("in-place blob does not carry the envelope header")
		}
		if len(pt) > 16 && bytes.Contains(blob, pt[:16]) {
			t.Fatal("plaintext leaked into in-place blob")
		}
		got, err := key.Open(blob, aad)
		if err != nil {
			t.Fatalf("%d-byte plaintext: %v", len(pt), err)
		}
		if !bytes.Equal(got, pt) {
			t.Fatalf("%d-byte plaintext: round trip mismatch", len(pt))
		}
		if _, err := key.Open(blob, []byte("elsewhere")); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("wrong aad: got %v, want ErrCorrupt", err)
		}
	}
}

// An encoder whose escapes overran its headroom hands SealInPlace a
// buffer with no spare capacity for the tag: the blob must still be
// right, sealed into one new buffer.
func TestSealInPlaceNoSpareCapacity(t *testing.T) {
	key := mustKey(t)
	pt := bytes.Repeat([]byte(`"esc<" `), 500)
	buf := make([]byte, Header+len(pt))
	copy(buf[Header:], pt)
	blob, err := key.SealInPlace(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if &blob[0] == &buf[0] {
		t.Fatal("sealed past the buffer's capacity")
	}
	got, err := key.Open(blob, nil)
	if err != nil || !bytes.Equal(got, pt) {
		t.Fatalf("round trip through a full buffer: %v", err)
	}
}

// allocsOf is op's allocations per run, failing t if op errs.
func allocsOf(t *testing.T, op func() error) float64 {
	return testing.AllocsPerRun(50, func() {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	})
}

// SealInPlace's allocation count is exact. NewKey expanded the AES-GCM
// schedule once, so with Overhead spare bytes behind the plaintext
// nothing is allocated: the nonce is written into the buffer and the
// ciphertext over the plaintext. A buffer with no room for the tag
// costs exactly one allocation, the blob.
func TestSealInPlaceAllocs(t *testing.T) {
	key := mustKey(t)
	pt := bytes.Repeat([]byte("sealed document "), 4<<10)
	aad := []byte("room")
	buf := append(NewBuffer(len(pt)), pt...)
	full := append([]byte(nil), buf...)
	if got := allocsOf(t, func() error { _, err := key.SealInPlace(buf, aad); return err }); got != 0 {
		t.Errorf("SealInPlace of %d bytes with Overhead spare bytes: %v allocs, want exactly 0", len(pt), got)
	}
	if got := allocsOf(t, func() error { _, err := key.SealInPlace(full[:len(full):len(full)], aad); return err }); got != 1 {
		t.Errorf("SealInPlace of %d bytes with no spare capacity: %v allocs, want exactly 1", len(pt), got)
	}
}

// Seal allocates only its blob, and Open only the plaintext.
func TestSealOpenAllocs(t *testing.T) {
	key := mustKey(t)
	pt := bytes.Repeat([]byte("sealed document "), 4<<10)
	aad := []byte("room")
	blob, err := key.Seal(pt, aad)
	if err != nil {
		t.Fatal(err)
	}
	if got := allocsOf(t, func() error { _, err := key.Seal(pt, aad); return err }); got != 1 {
		t.Errorf("Seal of %d bytes: %v allocs, want exactly 1", len(pt), got)
	}
	if got := allocsOf(t, func() error { _, err := key.Open(blob, aad); return err }); got != 1 {
		t.Errorf("Open of %d bytes: %v allocs, want exactly 1", len(pt), got)
	}
	dst := make([]byte, 0, len(pt))
	if got := allocsOf(t, func() error { _, err := key.OpenTo(dst, blob, aad); return err }); got != 0 {
		t.Errorf("OpenTo of %d bytes into a dst with room: %v allocs, want exactly 0", len(pt), got)
	}
	if got := allocsOf(t, func() error { _, err := key.OpenTo(dst[:0:len(pt)-1], blob, aad); return err }); got != 1 {
		t.Errorf("OpenTo of %d bytes into a dst one byte short: %v allocs, want exactly 1", len(pt), got)
	}
}
