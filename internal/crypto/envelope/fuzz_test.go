package envelope

import (
	"bytes"
	"testing"
)

// FuzzOpen checks that arbitrary blobs never panic the opener and
// never decrypt successfully under a fresh key, and that OpenTo is
// append(dst, Open(...)...): with sealIt the fuzzed bytes are sealed
// first, so the equality is checked on blobs that open as well as on
// blobs that fail, and a failed OpenTo leaves dst[:len(dst)] as it was.
func FuzzOpen(f *testing.F) {
	key := mustKey(f)
	sealed, err := key.Seal([]byte("seed plaintext"), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sealed, []byte("prefix"), uint8(14), false)
	f.Add(sealed, []byte(nil), uint8(0), false)
	f.Add([]byte("DIY\x01 garbage"), []byte("prefix"), uint8(64), false)
	f.Add([]byte(""), []byte(""), uint8(0), false)
	f.Add([]byte("room document"), []byte("kept"), uint8(13), true)
	f.Fuzz(func(t *testing.T, blob, dst []byte, spare uint8, sealIt bool) {
		fresh := mustKey(t)
		if pt, err := fresh.Open(blob, nil); err == nil {
			t.Fatalf("random blob opened under a fresh key: %q", pt)
		}
		if sealIt {
			if blob, err = key.Seal(blob, nil); err != nil {
				t.Fatal(err)
			}
		}
		want, werr := key.Open(blob, nil)
		buf := append(make([]byte, 0, len(dst)+int(spare)), dst...)
		got, gerr := key.OpenTo(buf, blob, nil)
		if werr != nil {
			if gerr != werr || got != nil {
				t.Fatalf("OpenTo = %q, %v; Open failed with %v", got, gerr, werr)
			}
			if !bytes.Equal(buf, dst) {
				t.Fatalf("failed OpenTo changed dst: %q, was %q", buf, dst)
			}
			return
		}
		if gerr != nil || !bytes.Equal(got, append(dst, want...)) {
			t.Fatalf("OpenTo = %q, %v; want %q", got, gerr, append(dst, want...))
		}
	})
}

// FuzzSealInPlace checks that any plaintext sealed in place, with or
// without spare capacity behind it, opens to itself under its aad and
// to nothing under another.
func FuzzSealInPlace(f *testing.F) {
	key := mustKey(f)
	f.Add([]byte("seed plaintext"), []byte("room"), uint8(Overhead))
	f.Add([]byte(""), []byte(""), uint8(0))
	f.Add(make([]byte, 300), []byte("history/000001"), uint8(7))
	f.Fuzz(func(t *testing.T, pt, aad []byte, spare uint8) {
		buf := make([]byte, Header+len(pt), Header+len(pt)+int(spare))
		copy(buf[Header:], pt)
		blob, err := key.SealInPlace(buf, aad)
		if err != nil {
			t.Fatal(err)
		}
		if len(blob) != Header+len(pt)+Overhead || !IsSealed(blob) {
			t.Fatalf("%d-byte plaintext sealed to %d bytes", len(pt), len(blob))
		}
		got, err := key.Open(blob, aad)
		if err != nil || !bytes.Equal(got, pt) {
			t.Fatalf("round trip: %q, %v; want %q", got, err, pt)
		}
		if _, err := key.Open(blob, append(aad, 0)); err == nil {
			t.Fatal("opened under a different aad")
		}
	})
}
