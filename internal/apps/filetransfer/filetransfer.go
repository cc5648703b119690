// Package filetransfer implements the paper's cloud-based file
// transfer service (§6.1): "DIY can be used to create a file storage
// and transfer server, providing a service similar to Apple's AirDrop
// service. Clients connect to the service with a request to transfer a
// file by filename and a recipient. The sender uploads the file to
// temporary storage, and the receiver downloads the file
// simultaneously."
//
// Files are envelope-encrypted in temporary storage; the recipient is
// notified through an offers queue and may either download through the
// function or fetch the sealed object directly from storage and open it
// locally (the deployment grants the client principal bucket-read and
// kms:Decrypt). Transfers expire: a sweep removes objects older than
// the TTL.
package filetransfer

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"repro/internal/cloudsim/lambda"
	"repro/internal/core"
	"repro/internal/crypto/sealedbox"
)

// OffersQueue is the queue suffix recipients poll for transfer offers.
const OffersQueue = "offers"

// DefaultTTL is how long a transfer stays in temporary storage.
const DefaultTTL = 24 * time.Hour

// baseMemory approximates the function's resident runtime; the Table 2
// row allocates 1 GB so large files can be buffered.
const baseMemory = 35 << 20

// App is the DIY file transfer application.
type App struct {
	// TTL overrides DefaultTTL.
	TTL time.Duration
}

// Name implements core.App.
func (App) Name() string { return "filetransfer" }

// Spec implements core.App: the Table 2 file-transfer row — a 1024 MB
// function ("allocate more memory to the Lambda function to buffer the
// file"), 2 s of compute per request.
func (App) Spec() core.AppSpec {
	return core.AppSpec{
		MemoryMB:            1024,
		Timeout:             5 * time.Minute,
		Endpoint:            "/files",
		Queues:              []string{OffersQueue},
		CacheDataKeys:       true,
		ClientCanReadBucket: true,
		ClientCanDecrypt:    true,
		EstCompute:          2000 * time.Millisecond, // Table 2 row 3
		Code:                []byte("diy-filetransfer:airdrop:v1"),
	}
}

// UploadRequest is the "upload" op payload. With RecipientPub set (an
// X25519 public key), the file is sealed to the recipient instead of
// to the deployment data key, so an *external* recipient — no cloud
// account, no deployment credentials — can pick it up via a presigned
// link and open it with their private key.
type UploadRequest struct {
	Name         string `json:"name"`
	To           string `json:"to"`
	Data         []byte `json:"data"`
	RecipientPub []byte `json:"recipient_pub,omitempty"`
}

// Offer is the sealed notification posted to the offers queue and the
// manifest record.
type Offer struct {
	Name     string    `json:"name"`
	From     string    `json:"from"`
	To       string    `json:"to"`
	Size     int       `json:"size"`
	Uploaded time.Time `json:"uploaded"`
}

// manifest is the sealed transfer index.
type manifest struct {
	Offers []Offer `json:"offers"`
}

// ObjectKey is the storage key for a named transfer.
func ObjectKey(name string) string { return "xfer/" + name }

// Handler implements core.App. Operations:
//
//	op "upload":   body = UploadRequest JSON; stores the sealed file
//	               and notifies the offers queue
//	op "list":     returns the manifest JSON
//	op "download": body = name; returns the file bytes
//	op "link":     body = name; returns a presigned download token an
//	               external recipient can redeem with no credentials
//	op "sweep":    removes transfers older than the TTL
func (a App) Handler() lambda.Handler {
	ttl := a.TTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	return func(env *lambda.Env, ev lambda.Event) (lambda.Response, error) {
		h := &xferHandler{env: env, ttl: ttl}
		switch ev.Op {
		case "upload":
			return h.upload(ev.Body)
		case "list":
			return h.list()
		case "download":
			return h.download(strings.TrimSpace(string(ev.Body)))
		case "link":
			return h.link(strings.TrimSpace(string(ev.Body)))
		case "sweep":
			return h.sweep()
		default:
			return lambda.Response{Status: 400, Body: []byte("unknown op")}, nil
		}
	}
}

type xferHandler struct {
	env *lambda.Env
	ttl time.Duration
}

// loadManifest opens the transfer manifest; a missing one is empty.
func loadManifest(v *core.Vault) (*manifest, error) {
	pt, found, err := v.Load("manifest")
	if err != nil {
		return nil, err
	}
	if !found {
		return &manifest{}, nil
	}
	m, err := parseManifest(pt)
	if err != nil {
		return nil, fmt.Errorf("filetransfer: parsing manifest: %w", err)
	}
	return m, nil
}

func saveManifest(v *core.Vault, m *manifest) error {
	buf, err := marshalManifest(m)
	if err != nil {
		return err
	}
	return v.Save("manifest", buf)
}

func (h *xferHandler) upload(body []byte) (lambda.Response, error) {
	req, err := decodeUploadRequest(body)
	if err != nil {
		return lambda.Response{Status: 400, Body: []byte("bad upload request")}, nil
	}
	if req.Name == "" || strings.Contains(req.Name, "/") || len(req.Data) == 0 {
		return lambda.Response{Status: 400, Body: []byte("upload needs a clean name and data")}, nil
	}
	// The function buffers the file: the reason for the 1 GB allocation.
	h.env.RecordMemory(baseMemory + int64(2*len(req.Data)))
	h.env.Compute(time.Duration(len(req.Data)/2048) * time.Microsecond) // ~0.5 GB/s AES

	v, err := core.OpenVault(h.env)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	objKey := ObjectKey(req.Name)
	if len(req.RecipientPub) > 0 {
		pub, perr := sealedbox.ParsePublicKey(req.RecipientPub)
		if perr != nil {
			return lambda.Response{Status: 400, Body: []byte("bad recipient key")}, nil
		}
		var sealed []byte
		if sealed, err = sealedbox.Seal(pub, req.Data, []byte(objKey)); err == nil {
			err = h.env.S3().Put(h.env.Ctx(), v.Bucket(), objKey, sealed)
		}
	} else {
		err = v.Put(objKey, req.Data)
	}
	if err != nil {
		return lambda.Response{Status: 500}, err
	}

	offer := Offer{
		Name: req.Name, From: h.env.Config(core.ConfigUser), To: req.To,
		Size: len(req.Data), Uploaded: h.env.Ctx().Cursor.Now(),
	}
	m, err := loadManifest(v)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	m.Offers = append(m.Offers, offer)
	if err := saveManifest(v, m); err != nil {
		return lambda.Response{Status: 500}, err
	}

	// Notify the recipient (sealed, like everything leaving the
	// container).
	notice, err := marshalOffer(&offer)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	sealedNotice, err := v.Key().Seal(notice, []byte("offer"))
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	qname := h.env.Config(core.ConfigQueuePref + OffersQueue)
	if _, err := h.env.SQS().Send(h.env.Ctx(), qname, sealedNotice); err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 200, Body: []byte(objKey)}, nil
}

func (h *xferHandler) list() (lambda.Response, error) {
	v, err := core.OpenVault(h.env)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	m, err := loadManifest(v)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	out, err := marshalOffers(m.Offers)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 200, Body: out}, nil
}

func (h *xferHandler) download(name string) (lambda.Response, error) {
	if name == "" {
		return lambda.Response{Status: 400, Body: []byte("missing name")}, nil
	}
	v, err := core.OpenVault(h.env)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	pt, found, err := v.Load(ObjectKey(name))
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	if !found {
		return lambda.Response{Status: 404, Body: []byte("no such transfer")}, nil
	}
	h.env.RecordMemory(baseMemory + int64(2*len(pt)))
	h.env.Compute(time.Duration(len(pt)/2048) * time.Microsecond)
	// The plaintext is zeroed when the invocation ends; the response
	// outlives it.
	return lambda.Response{Status: 200, Body: bytes.Clone(pt)}, nil
}

// link mints a presigned download token for a transfer, valid for the
// service TTL: the AirDrop handoff an external recipient follows with
// no cloud credentials.
func (h *xferHandler) link(name string) (lambda.Response, error) {
	if name == "" {
		return lambda.Response{Status: 400, Body: []byte("missing name")}, nil
	}
	h.env.Compute(2 * time.Millisecond)
	token, err := h.env.S3().Presign(h.env.Ctx().Principal, h.env.Config(core.ConfigBucket), ObjectKey(name),
		h.env.Ctx().Cursor.Now().Add(h.ttl))
	if err != nil {
		return lambda.Response{Status: 404, Body: []byte("no such transfer")}, nil
	}
	return lambda.Response{Status: 200, Body: []byte(token)}, nil
}

// sweep enforces the temporary-storage TTL.
func (h *xferHandler) sweep() (lambda.Response, error) {
	v, err := core.OpenVault(h.env)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	m, err := loadManifest(v)
	if err != nil {
		return lambda.Response{Status: 500}, err
	}
	now := h.env.Ctx().Cursor.Now()
	kept := m.Offers[:0]
	removed := 0
	for _, o := range m.Offers {
		if now.Sub(o.Uploaded) > h.ttl {
			if err := h.env.S3().Delete(h.env.Ctx(), v.Bucket(), ObjectKey(o.Name)); err != nil {
				return lambda.Response{Status: 500}, err
			}
			removed++
			continue
		}
		kept = append(kept, o)
	}
	m.Offers = kept
	if err := saveManifest(v, m); err != nil {
		return lambda.Response{Status: 500}, err
	}
	return lambda.Response{Status: 200, Body: []byte(fmt.Sprintf("%d", removed))}, nil
}
