package filetransfer

import (
	"encoding/json"
	"strings"

	"repro/internal/canonjson"
)

// Every upload reads and rewrites the sealed manifest and decodes a
// request body that carries the whole file, so both have hand-written
// codecs instead of encoding/json.
//
// The manifest and the function's other output (the offer notice and
// the list response) are encoded to exactly json.Marshal's bytes for
// the same value, so sealed sizes, queue and transfer bills and goldens
// are those of encoding/json. The manifest parser accepts only those
// bytes (everything it reads was sealed under the envelope AEAD) and
// returns what json.Unmarshal would: null is a nil slice, [] an empty
// one.
//
// The upload body comes from outside and is not sealed, so its decoder
// only takes a fast path for json.Marshal's exact bytes and hands any
// other body to json.Unmarshal: it accepts what json.Unmarshal accepts
// and returns what it returns.

// marshalManifest encodes m as json.Marshal(m) would.
func marshalManifest(m *manifest) ([]byte, error) {
	n := len(`{"offers":}`) + offersLen(m.Offers)
	b := make([]byte, 0, n+canonjson.Headroom(n))
	b = append(b, `{"offers":`...)
	b, err := appendOffers(b, m.Offers)
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// marshalOffers encodes a list response as json.Marshal(offers) would.
func marshalOffers(offers []Offer) ([]byte, error) {
	n := offersLen(offers)
	return appendOffers(make([]byte, 0, n+canonjson.Headroom(n)), offers)
}

// marshalOffer encodes an offer notice as json.Marshal(o) would.
func marshalOffer(o *Offer) ([]byte, error) {
	n := offerLen(o)
	return appendOffer(make([]byte, 0, n+canonjson.Headroom(n)), o)
}

func appendOffers(b []byte, offers []Offer) ([]byte, error) {
	if offers == nil {
		return append(b, "null"...), nil
	}
	b = append(b, '[')
	for i := range offers {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendOffer(b, &offers[i]); err != nil {
			return nil, err
		}
	}
	return append(b, ']'), nil
}

func appendOffer(b []byte, o *Offer) ([]byte, error) {
	b = append(b, offerStart...)
	b = canonjson.AppendString(b, o.Name)
	b = append(b, `,"from":`...)
	b = canonjson.AppendString(b, o.From)
	b = append(b, `,"to":`...)
	b = canonjson.AppendString(b, o.To)
	b = append(b, `,"size":`...)
	b = canonjson.AppendInt(b, o.Size)
	b = append(b, `,"uploaded":`...)
	b, err := canonjson.AppendTime(b, o.Uploaded)
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

// offersLen bounds the encoded length of offers if no string needs
// escaping.
func offersLen(offers []Offer) int {
	n := len("null")
	for i := range offers {
		n += offerLen(&offers[i]) + len(",")
	}
	return n
}

func offerLen(o *Offer) int {
	return len(`{"name":"","from":"","to":"","size":,"uploaded":}`) +
		len(o.Name) + len(o.From) + len(o.To) + canonjson.IntLen(o.Size) + canonjson.MaxTimeLen
}

// offerStart opens every encoded offer and cannot occur anywhere else:
// inside strings the encoder always escapes '"'.
const offerStart = `{"name":`

// parseManifest decodes bytes written by marshalManifest.
func parseManifest(pt []byte) (*manifest, error) {
	r := canonjson.NewReader(pt)
	m := new(manifest)
	r.Expect(`{"offers":`)
	m.Offers = readOffers(r)
	r.Expect("}")
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

func readOffers(r *canonjson.Reader) []Offer {
	if r.Accept("null") {
		return nil
	}
	r.Expect("[")
	if r.Err() != nil {
		return nil
	}
	offers := make([]Offer, 0, strings.Count(r.Rest(), offerStart))
	for first := true; r.More(']', first); first = false {
		var o Offer
		r.Expect(offerStart)
		o.Name = r.Str()
		r.Expect(`,"from":`)
		o.From = r.Str()
		r.Expect(`,"to":`)
		o.To = r.Str()
		r.Expect(`,"size":`)
		o.Size = r.Int()
		r.Expect(`,"uploaded":`)
		o.Uploaded = r.Time()
		r.Expect("}")
		offers = append(offers, o)
	}
	return offers
}

// decodeUploadRequest decodes an upload body as json.Unmarshal does,
// with the same result and error for every input.
func decodeUploadRequest(body []byte) (UploadRequest, error) {
	if req, ok := readUploadRequest(body); ok {
		return req, nil
	}
	var req UploadRequest
	err := json.Unmarshal(body, &req)
	return req, err
}

// readUploadRequest is decodeUploadRequest's fast path. It reads body
// only if body is exactly json.Marshal's encoding of an UploadRequest,
// and reports false for anything else.
func readUploadRequest(body []byte) (UploadRequest, bool) {
	var req UploadRequest
	r := canonjson.NewReader(body)
	r.Expect(`{"name":`)
	req.Name = r.Str()
	r.Expect(`,"to":`)
	req.To = r.Str()
	r.Expect(`,"data":`)
	req.Data = r.Bytes()
	if r.Accept(`,"recipient_pub":`) {
		if req.RecipientPub = r.Bytes(); len(req.RecipientPub) == 0 {
			r.Reject("empty recipient_pub") // omitempty drops it
		}
	}
	r.Expect("}")
	if r.Done() != nil {
		return UploadRequest{}, false
	}
	// The body is the caller's buffer, so the strings must not alias it.
	req.Name, req.To = strings.Clone(req.Name), strings.Clone(req.To)
	return req, true
}
