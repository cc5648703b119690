package filetransfer

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/crypto/envelope"
)

// plaintext returns the JSON a sealed-document encoder wrote behind the
// envelope header it reserves; a failed encoding's nil stays nil.
func plaintext(buf []byte) []byte {
	if buf == nil {
		return nil
	}
	return buf[envelope.Header:]
}

// fuzzManifest builds a manifest from fuzz inputs. shape's low bits
// choose a nil, empty or filled offer list, so null and [] both occur.
func fuzzManifest(name, from, to string, size int, sec int64, nsec int32, offsetMin int16, shape uint8) *manifest {
	switch shape & 3 {
	case 0:
		return &manifest{}
	case 1:
		return &manifest{Offers: []Offer{}}
	}
	at := time.Unix(sec, int64(nsec)).In(time.FixedZone("", int(offsetMin)*60))
	o := Offer{Name: name, From: from, To: to, Size: size, Uploaded: at}
	second := Offer{Name: to, From: name, Size: -size, Uploaded: at.UTC()}
	return &manifest{Offers: []Offer{o, second, {Uploaded: at.Add(time.Duration(sec))}}}
}

// sameOffers compares decoded offers: times by Equal (a decoded zone is
// a new Location), everything else exactly.
func sameOffers(got, want []Offer) bool {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if !g.Uploaded.Equal(w.Uploaded) {
			return false
		}
		g.Uploaded, w.Uploaded = time.Time{}, time.Time{}
		if g != w {
			return false
		}
	}
	return true
}

// checkManifestEncoders requires each encoder to write json.Marshal's
// bytes for m, or to fail where it fails, and returns json.Marshal(m).
func checkManifestEncoders(t *testing.T, m *manifest) ([]byte, error) {
	t.Helper()
	want, wantErr := json.Marshal(m)
	buf, err := marshalManifest(m)
	got := plaintext(buf)
	if (err != nil) != (wantErr != nil) || !bytes.Equal(got, want) {
		t.Fatalf("marshalManifest = %q, %v; json.Marshal = %q, %v", got, err, want, wantErr)
	}
	wantList, wantErr := json.Marshal(m.Offers)
	gotList, err := marshalOffers(m.Offers)
	if (err != nil) != (wantErr != nil) || !bytes.Equal(gotList, wantList) {
		t.Fatalf("marshalOffers = %q, %v; json.Marshal = %q, %v", gotList, err, wantList, wantErr)
	}
	for i := range m.Offers {
		wantOffer, wantErr := json.Marshal(m.Offers[i])
		gotOffer, err := marshalOffer(&m.Offers[i])
		if (err != nil) != (wantErr != nil) || !bytes.Equal(gotOffer, wantOffer) {
			t.Fatalf("marshalOffer = %q, %v; json.Marshal = %q, %v", gotOffer, err, wantOffer, wantErr)
		}
	}
	return want, wantErr
}

// checkParseManifest requires parseManifest to accept pt only if
// json.Unmarshal reads it to a value json.Marshal writes back as pt,
// and then to return that value, which the encoders must write as
// json.Marshal does. The one exception is the \ufffd
// escape: the encoder writes it for invalid UTF-8, which decodes to
// U+FFFD, which the encoder writes raw.
func checkParseManifest(t *testing.T, pt []byte) {
	t.Helper()
	got, err := parseManifest(bytes.Clone(pt))
	if err != nil {
		return
	}
	var want manifest
	if err := json.Unmarshal(pt, &want); err != nil {
		t.Fatalf("parseManifest accepted %q, json.Unmarshal: %v", pt, err)
	}
	if !sameOffers(got.Offers, want.Offers) {
		t.Fatalf("parseManifest(%q) = %#v, json.Unmarshal = %#v", pt, got.Offers, want.Offers)
	}
	if canon, _ := json.Marshal(&want); !bytes.Equal(canon, pt) && !bytes.Contains(pt, []byte(`\ufffd`)) {
		t.Fatalf("parseManifest accepted %q, json.Marshal writes %q", pt, canon)
	}
	checkManifestEncoders(t, got)
}

// FuzzManifestCodec checks the manifest codec against encoding/json in
// both directions: the encoders write json.Marshal's bytes for values
// built from the inputs, the parser reads those bytes back as
// json.Unmarshal does, and on arbitrary bytes it accepts only
// json.Marshal's encoding of what json.Unmarshal reads.
func FuzzManifestCodec(f *testing.F) {
	ls := string(rune(0x2028))
	f.Add("drop-000001", "alice", "peer", 4096, int64(1496275200), int32(0), int16(0), uint8(2), []byte(`{"offers":null}`))
	f.Add("", "", "", 0, int64(0), int32(0), int16(0), uint8(1), []byte(`{"offers":[]}`))
	f.Add("a/b <c> & d", "\"q\"\t\n", "x"+ls, -1, int64(1e9), int32(123456789), int16(330), uint8(3),
		[]byte(`{"offers":[{"name":"a","from":"b","to":"c","size":1,"uploaded":"2017-06-01T00:00:00Z"}]}`))
	f.Add("\xff", "bad\xc3\x28", "\x00\x1f", 1<<40, int64(-62135596800), int32(1), int16(-59), uint8(2),
		[]byte(`{"offers":[{"name":"a","from":"b","to":"c","size":1,"uploaded":"2017-06-01T00:00:00.000Z"}]}`))
	// Times at the edges of RFC 3339's range, where Marshal fails.
	f.Add("n", "f", "t", 1, int64(253402300799), int32(999999999), int16(1439), uint8(2), []byte(`{"offers":[],"x":1}`))
	f.Add("n", "f", "t", 1, int64(253402300800), int32(0), int16(0), uint8(2), []byte(`{"offers": []}`))
	f.Add("n", "f", "t", 1, int64(0), int32(0), int16(1440), uint8(2), []byte(`{"offers":[{"from":"b","name":"a","to":"c","size":1,"uploaded":"2017-06-01T00:00:00Z"}]}`))
	f.Fuzz(func(t *testing.T, name, from, to string, size int, sec int64, nsec int32, offsetMin int16, shape uint8, raw []byte) {
		m := fuzzManifest(name, from, to, size, sec, nsec, offsetMin, shape)
		if want, err := checkManifestEncoders(t, m); err == nil {
			if _, err := parseManifest(bytes.Clone(want)); err != nil {
				t.Fatalf("parseManifest(%q): %v", want, err)
			}
			checkParseManifest(t, want)
		}
		checkParseManifest(t, raw)
	})
}

func TestParseManifestRejectsNonCanonical(t *testing.T) {
	const offer = `{"name":"a","from":"b","to":"c","size":1,"uploaded":"2017-06-01T00:00:00Z"}`
	if _, err := parseManifest([]byte(`{"offers":[` + offer + `]}`)); err != nil {
		t.Fatalf("canonical manifest rejected: %v", err)
	}
	for _, bad := range []string{
		`{"name":"a","from":"b","to":"c","size":01,"uploaded":"2017-06-01T00:00:00Z"}`,
		`{"name":"a","from":"b","to":"c","size":1,"uploaded":"2017-06-01T00:00:00.0Z"}`,
		`{"name":"a","from":"b","to":"c","size":1,"uploaded":"2017-06-01T00:00:00+00:00"}`,
		`{"name":"a","from":"b","to":"c","size":1.0,"uploaded":"2017-06-01T00:00:00Z"}`,
		`{"name":"a","to":"c","from":"b","size":1,"uploaded":"2017-06-01T00:00:00Z"}`,
		`{"name":"a","from":"b","to":"c","size":1}`,
		`{"name":"<","from":"b","to":"c","size":1,"uploaded":"2017-06-01T00:00:00Z"}`,
		offer + ` `,
	} {
		if _, err := parseManifest([]byte(`{"offers":[` + bad + `]}`)); err == nil {
			t.Errorf("parseManifest accepted non-canonical offer %s", bad)
		}
	}
}

// checkUploadDecode requires decodeUploadRequest to return exactly what
// json.Unmarshal returns for body, error included, and the fast path,
// whenever it accepts body, to agree with it.
func checkUploadDecode(t *testing.T, body []byte) {
	t.Helper()
	var want UploadRequest
	wantErr := json.Unmarshal(body, &want)
	got, err := decodeUploadRequest(body)
	if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeUploadRequest(%q) = %#v, %v; json.Unmarshal = %#v, %v", body, got, err, want, wantErr)
	}
	if fast, ok := readUploadRequest(body); ok && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
		t.Fatalf("fast path read %q as %#v; json.Unmarshal = %#v, %v", body, fast, want, wantErr)
	}
}

// FuzzUploadRequestDecode checks the upload body decoder against
// json.Unmarshal on arbitrary bytes, and that json.Marshal's encoding
// of any UploadRequest takes the fast path, so the two agree there by
// construction rather than through the fallback.
func FuzzUploadRequestDecode(f *testing.F) {
	f.Add([]byte(`{"name":"n","to":"t","data":"AQID"}`), "drop-000001", "peer", []byte("payload"), []byte(nil), uint8(0))
	f.Add([]byte(`{"to":"t","name":"n","data":"AQID"}`), "", "", []byte{}, []byte{}, uint8(3))
	f.Add([]byte(`{"name":"n","to":"t","data":"AQ\nID"}`), "<a&b>", " ", []byte{0xff}, make([]byte, 32), uint8(2))
	f.Add([]byte("{\"name\":\"n\",\"to\":\"t\",\"data\":\"AQ\nID\"}"), "\xff", "\x00", []byte(nil), []byte{1}, uint8(1))
	f.Add([]byte(`{"name":"n","to":"t","data":"AR=="}`), "x", "y", []byte{1}, []byte{2}, uint8(2))
	f.Add([]byte(`{"name":"n","to":"t","data":null,"recipient_pub":""}`), "x", "y", []byte{1}, []byte{2}, uint8(2))
	f.Add([]byte(`{"name":"n","to":"t","data":"","recipient_pub":null}`), "x", "y", []byte{1}, []byte{2}, uint8(2))
	f.Add([]byte(`{"NAME":"n","to":"t","data":"AQID","extra":[1,2]}`), "x", "y", []byte{1}, []byte{2}, uint8(2))
	f.Add([]byte(`{"name":"n","to":"t","data":"AQID"} `), "x", "y", []byte{1}, []byte{2}, uint8(2))
	f.Add([]byte(`{"name":"n","to":"t","data":"AQID"}{}`), "x", "y", []byte{1}, []byte{2}, uint8(2))
	f.Add([]byte(`{"name":"n","to":"t","data":"AQI\/"}`), "x", "y", []byte{1}, []byte{2}, uint8(2))
	f.Add([]byte(`{"name":1,"to":"t","data":"AQID"}`), "x", "y", []byte{1}, []byte{2}, uint8(2))
	f.Add([]byte(`null`), "x", "y", []byte{1}, []byte{2}, uint8(2))
	f.Fuzz(func(t *testing.T, raw []byte, name, to string, data, pub []byte, shape uint8) {
		checkUploadDecode(t, raw)
		// shape's bits choose nil or empty Data and RecipientPub.
		if shape&1 != 0 && len(data) == 0 {
			data = nil
		}
		if shape&2 != 0 && len(pub) == 0 {
			pub = nil
		}
		body, err := json.Marshal(UploadRequest{Name: name, To: to, Data: data, RecipientPub: pub})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := readUploadRequest(body); !ok {
			t.Fatalf("fast path rejected json.Marshal output %q", body)
		}
		checkUploadDecode(t, body)
	})
}

// The decoded request must not alias the caller's body: the fast path
// views the body in place while it parses.
func TestUploadRequestDoesNotAliasBody(t *testing.T) {
	body, err := json.Marshal(UploadRequest{Name: "report.pdf", To: "bob", Data: []byte("contents")})
	if err != nil {
		t.Fatal(err)
	}
	req, ok := readUploadRequest(body)
	if !ok {
		t.Fatalf("fast path rejected %q", body)
	}
	for i := range body {
		body[i] = 'x'
	}
	if req.Name != "report.pdf" || req.To != "bob" || string(req.Data) != "contents" {
		t.Fatalf("overwriting the body changed the request: %+v", req)
	}
}

// bigManifest builds the manifest a day of uploads leaves: n offers from
// one sender, UTC timestamps, no string that needs escaping.
func bigManifest(n int) *manifest {
	m := &manifest{Offers: []Offer{}}
	base := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		m.Offers = append(m.Offers, Offer{
			Name: fmt.Sprintf("drop-%06d", i), From: "alice", To: "peer",
			Size: 24<<10 + i*97, Uploaded: base.Add(time.Duration(i) * 137 * time.Second),
		})
	}
	return m
}

// The codec's allocation counts are exact and host-independent. Each
// encoder allocates its one presized buffer. The manifest parser
// allocates the manifest and its offer slice, whatever the offer count:
// strings alias the opened plaintext and UTC times need no Location.
// The upload fast path allocates the decoded file and one copy each of
// the name and recipient out of the caller's body.
func TestManifestCodecAllocs(t *testing.T) {
	m := bigManifest(200)
	buf, err := marshalManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	if spare := cap(buf) - len(buf); spare < envelope.Overhead {
		t.Errorf("manifest encoded with %d bytes spare, want at least the %d-byte GCM tag", spare, envelope.Overhead)
	}
	pt := plaintext(buf)
	for name, c := range map[string]struct {
		want float64
		run  func() error
	}{
		"marshalManifest": {1, func() error { _, err := marshalManifest(m); return err }},
		"marshalOffers":   {1, func() error { _, err := marshalOffers(m.Offers); return err }},
		"marshalOffer":    {1, func() error { _, err := marshalOffer(&m.Offers[7]); return err }},
		"parseManifest":   {2, func() error { _, err := parseManifest(pt); return err }},
	} {
		if got := testing.AllocsPerRun(20, func() {
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
		}); got != c.want {
			t.Errorf("%s on %d offers (%d bytes): %v allocs, want exactly %v", name, len(m.Offers), len(pt), got, c.want)
		}
	}

	body, err := json.Marshal(UploadRequest{Name: "drop-000001", To: "peer", Data: bytes.Repeat([]byte("media"), 10_000)})
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(20, func() {
		if _, ok := readUploadRequest(body); !ok {
			t.Fatal("fast path rejected json.Marshal output")
		}
	}); got != 3 {
		t.Errorf("upload fast path on a %d-byte body: %v allocs, want exactly 3", len(body), got)
	}
}

var (
	sinkBytes    []byte
	sinkManifest *manifest
	sinkUpload   UploadRequest
)

// BenchmarkManifestCodec sets the hand-written codecs beside
// encoding/json on a 200-offer manifest and a 48 KB upload body.
func BenchmarkManifestCodec(b *testing.B) {
	m := bigManifest(200)
	buf, _ := marshalManifest(m)
	pt := plaintext(buf)
	body, _ := json.Marshal(UploadRequest{Name: "drop-000001", To: "peer", Data: bytes.Repeat([]byte("media"), 48<<10/5)})
	for _, c := range []struct {
		name string
		size int
		run  func()
	}{
		{"encode/canonjson", len(pt), func() { sinkBytes, _ = marshalManifest(m) }},
		{"encode/encoding_json", len(pt), func() { sinkBytes, _ = json.Marshal(m) }},
		{"decode/canonjson", len(pt), func() { sinkManifest, _ = parseManifest(pt) }},
		{"decode/encoding_json", len(pt), func() {
			var d manifest
			_ = json.Unmarshal(pt, &d)
			sinkManifest = &d
		}},
		{"upload/canonjson", len(body), func() { sinkUpload, _ = decodeUploadRequest(body) }},
		{"upload/encoding_json", len(body), func() {
			var req UploadRequest
			_ = json.Unmarshal(body, &req)
			sinkUpload = req
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(c.size))
			for i := 0; i < b.N; i++ {
				c.run()
			}
		})
	}
}
