package envelope

import (
	"bytes"
	"testing"
)

// FuzzOpen checks that arbitrary blobs never panic the opener and
// never decrypt successfully under a fresh key.
func FuzzOpen(f *testing.F) {
	key, err := NewDataKey()
	if err != nil {
		f.Fatal(err)
	}
	sealed, err := Seal(key, []byte("seed plaintext"), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed)
	f.Add([]byte("DIY\x01 garbage"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, blob []byte) {
		fresh, err := NewDataKey()
		if err != nil {
			t.Skip()
		}
		if pt, err := Open(fresh, blob, nil); err == nil {
			t.Fatalf("random blob opened under a fresh key: %q", pt)
		}
	})
}

// FuzzSealInPlace checks that any plaintext sealed in place, with or
// without spare capacity behind it, opens to itself under its aad and
// to nothing under another.
func FuzzSealInPlace(f *testing.F) {
	key, err := NewDataKey()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte("seed plaintext"), []byte("room"), uint8(Overhead))
	f.Add([]byte(""), []byte(""), uint8(0))
	f.Add(make([]byte, 300), []byte("history/000001"), uint8(7))
	f.Fuzz(func(t *testing.T, pt, aad []byte, spare uint8) {
		buf := make([]byte, Header+len(pt), Header+len(pt)+int(spare))
		copy(buf[Header:], pt)
		blob, err := SealInPlace(key, buf, aad)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != Header+len(pt)+Overhead || !IsSealed(blob) {
			t.Fatalf("%d-byte plaintext sealed to %d bytes", len(pt), len(blob))
		}
		got, err := Open(key, blob, aad)
		if err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("round trip: %q, %v; want %q", got, err, pt)
		}
		if _, err := Open(key, blob, append(aad, 0)); err == nil {
			t.Fatal("opened under a different aad")
		}
	})
}
