package envelope

import "testing"

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
