// Package kms simulates the key management service at the center of
// DIY's threat model. Master keys are generated inside the service and
// never exported by any API: callers receive data keys (for envelope
// encryption) either wrapped under a master key or, if and only if IAM
// authorizes them, in plaintext for the duration of a function
// invocation.
//
// Every call is authenticated against IAM, metered for billing, and
// recorded in an append-only audit log — the properties the paper
// cites when it argues a KMS is "a hardened, audited system whose main
// goal is securing encryption keys". A cloud that logs also hands New
// its log service, and every audit entry is then mirrored into the
// "kms/audit" log group.
package kms

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/cloudsim/clock"
	"repro/internal/cloudsim/iam"
	"repro/internal/cloudsim/logs"
	"repro/internal/cloudsim/netsim"
	"repro/internal/cloudsim/plane"
	"repro/internal/cloudsim/sim"
	"repro/internal/cloudsim/trace"
	"repro/internal/crypto/envelope"
	"repro/internal/pricing"
)

func init() {
	plane.Register(
		plane.Op{Service: "kms", Method: "GenerateDataKey", Action: ActionGenerateDataKey},
		plane.Op{Service: "kms", Method: "Decrypt", Action: ActionDecrypt},
		plane.Op{Service: "kms", Method: "ImportWrapped", Action: ActionGenerateDataKey},
	)
}

// Actions checked against IAM.
const (
	ActionGenerateDataKey = "kms:GenerateDataKey"
	ActionDecrypt         = "kms:Decrypt"
	ActionDescribe        = "kms:DescribeKey"
)

// Errors returned by the service.
var (
	ErrKeyNotFound = errors.New("kms: key not found")
	ErrBadBlob     = errors.New("kms: malformed wrapped key blob")
)

// AuditEntry records one API call against a key.
type AuditEntry struct {
	Time      time.Time
	Principal string
	Action    string
	KeyID     string
	Allowed   bool
}

type masterKey struct {
	id              string
	material        []byte // never leaves the service
	key             envelope.Key
	customerManaged bool
}

// Service is the simulated KMS. It is safe for concurrent use.
type Service struct {
	meter *pricing.Meter
	pl    *plane.Plane
	clk   *clock.Virtual
	logs  *logs.Service // set at construction; nil means no audit group

	mu    sync.Mutex
	keys  map[string]*masterKey
	audit []AuditEntry
}

// New returns a KMS wired to the given IAM, meter, network model and
// clock; the clock timestamps audit entries for calls that carry no
// simulated timeline. A non-nil lg also receives every audit entry as
// a structured event in the "kms/audit" log group, so the "hardened,
// audited system" evidence trail the paper's trust argument rests on is
// queryable alongside the rest of the log plane; nil leaves the
// in-memory log behind Audit() as the only record, which it stays
// either way.
func New(iamSvc *iam.Service, meter *pricing.Meter, model *netsim.Model, clk *clock.Virtual, lg *logs.Service) *Service {
	return &Service{
		meter: meter,
		pl:    plane.New(iamSvc, meter, model),
		clk:   clk,
		logs:  lg,
		keys:  make(map[string]*masterKey),
	}
}

// Plane exposes the service's request plane so wiring code can attach
// interceptors around every op.
func (s *Service) Plane() *plane.Plane { return s.pl }

// CreateKey provisions a master key with the given id. Customer-managed
// keys carry the monthly per-key charge; provider-managed default keys
// (customerManaged=false) do not. The key material is generated inside
// the service and is never returned by any API.
func (s *Service) CreateKey(id string, customerManaged bool) error {
	if id == "" {
		return errors.New("kms: key id must be non-empty")
	}
	material, err := envelope.NewDataKey()
	if err != nil {
		return fmt.Errorf("kms: creating master key: %w", err)
	}
	key, err := envelope.NewKey(material)
	if err != nil {
		return fmt.Errorf("kms: creating master key: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.keys[id]; exists {
		return fmt.Errorf("kms: key %q already exists", id)
	}
	s.keys[id] = &masterKey{id: id, material: material, key: key, customerManaged: customerManaged}
	if customerManaged {
		s.meter.Add(pricing.Usage{Kind: pricing.KMSCustomerKeys, Quantity: 1})
	}
	return nil
}

// DeleteKey schedules a master key for deletion (immediately, in the
// simulation). All data wrapped under it becomes unrecoverable — this
// is the "delete data for good" control DIY gives users.
func (s *Service) DeleteKey(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	mk, ok := s.keys[id]
	if !ok {
		return ErrKeyNotFound
	}
	envelope.Zero(mk.material)
	delete(s.keys, id)
	return nil
}

// KeyExists reports whether a key id is provisioned.
func (s *Service) KeyExists(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.keys[id]
	return ok
}

// resourcePrefix starts every key's IAM resource name.
const resourcePrefix = "key/"

// Resource returns the IAM resource string for a key id.
func Resource(keyID string) string { return resourcePrefix + keyID }

// GenerateDataKey returns a fresh data key both in plaintext (for
// immediate use inside the calling container) and wrapped under the
// master key (for storage alongside the ciphertext). Requires
// kms:GenerateDataKey on the key.
func (s *Service) GenerateDataKey(ctx *sim.Context, keyID string) (plaintext, wrapped []byte, err error) {
	op := &generateOp{s: s, keyID: keyID}
	if err := s.do(ctx, ActionGenerateDataKey, keyID, op); err != nil {
		return nil, nil, err
	}
	return op.plaintext, op.wrapped, nil
}

// generateOp is one GenerateDataKey's handler, holding the key it
// returns.
type generateOp struct {
	s                  *Service
	keyID              string
	plaintext, wrapped []byte
}

func (op *generateOp) Handle(*plane.Request) error {
	mk, err := op.s.lookup(op.keyID)
	if err != nil {
		return err
	}
	dk, err := envelope.NewDataKey()
	if err != nil {
		return err
	}
	w, err := op.s.wrap(mk, dk)
	if err != nil {
		return err
	}
	op.plaintext, op.wrapped = dk, w
	return nil
}

// Decrypt unwraps a data key blob produced by GenerateDataKey. The key
// id is read from the blob itself, and the caller must hold kms:Decrypt
// on that key.
func (s *Service) Decrypt(ctx *sim.Context, wrapped []byte) ([]byte, error) {
	id, sealed, err := splitBlob(wrapped)
	if err != nil {
		return nil, err
	}
	// The blob's id names a provisioned key almost always: use that
	// key's own id string, so the call allocates none. Only an unknown
	// id is copied out of the blob; the handler looks the key up again
	// after authorization, so a miss still fails there, as not found.
	s.mu.Lock()
	mk := s.keys[string(id)]
	s.mu.Unlock()
	var keyID string
	if mk != nil {
		keyID = mk.id
	} else {
		keyID = string(id)
	}
	op := &decryptOp{s: s, keyID: keyID, sealed: sealed}
	if err := s.do(ctx, ActionDecrypt, keyID, op); err != nil {
		return nil, err
	}
	return op.dk, nil
}

// decryptOp is one Decrypt's handler, holding the data key it unwraps.
// aad backs the "kms:<key id>" associated data, so that shares the
// op's allocation too unless the key id is long.
type decryptOp struct {
	s          *Service
	keyID      string
	sealed, dk []byte
	aad        [48]byte
}

func (op *decryptOp) Handle(*plane.Request) error {
	mk, err := op.s.lookup(op.keyID)
	if err != nil {
		return err
	}
	dk, err := mk.key.Open(op.sealed, append(append(op.aad[:0], "kms:"...), op.keyID...))
	if err != nil {
		return fmt.Errorf("kms: unwrapping data key: %w", err)
	}
	op.dk = dk
	return nil
}

// ImportWrapped wraps an externally supplied data key under a master
// key. Cross-cloud migration uses it on the destination side.
func (s *Service) ImportWrapped(ctx *sim.Context, dataKey []byte, keyID string) ([]byte, error) {
	var out []byte
	err := s.do(ctx, ActionGenerateDataKey, keyID, plane.HandlerFunc(func(*plane.Request) error {
		mk, lerr := s.lookup(keyID)
		if lerr != nil {
			return lerr
		}
		w, werr := s.wrap(mk, dataKey)
		if werr != nil {
			return werr
		}
		out = w
		return nil
	}))
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Audit returns a copy of the audit log.
func (s *Service) Audit() []AuditEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]AuditEntry(nil), s.audit...)
}

// do routes one key API call through the request plane and appends the
// audit entry once the call settles: an entry is recorded whether the
// call was allowed or denied, timestamped after the call's latency on
// the flow's timeline (or on the service clock for calls that carry no
// timeline). Allowed reflects only the IAM decision — a failed lookup
// after authorization still audits as allowed, as the real service
// logs the authenticated attempt.
func (s *Service) do(ctx *sim.Context, action, keyID string, h plane.Handler) error {
	c := plane.Call{
		Service:     "kms",
		Op:          action,
		Action:      action,
		Resource:    iam.Resource{resourcePrefix, keyID},
		Annotations: [2]trace.Annotation{{Key: "key_id", Value: keyID}},
		Latency:     plane.Latency{On: true, Hop: netsim.HopKMS},
		Fee:         pricing.Usage{Kind: pricing.KMSRequests, Quantity: 1},
	}
	err := s.pl.DoHandler(ctx, &c, h)
	principal := ""
	if ctx != nil {
		principal = ctx.Principal
	}
	at := ctx.Now()
	if at.IsZero() {
		at = s.clk.Now()
	}
	entry := AuditEntry{
		Time:      at,
		Principal: principal,
		Action:    action,
		KeyID:     keyID,
		Allowed:   !errors.Is(err, iam.ErrDenied),
	}
	s.mu.Lock()
	s.audit = append(s.audit, entry)
	s.mu.Unlock()
	if s.logs != nil {
		s.logs.AppendKMSAudit(entry.Time, entry.Principal, entry.Action, entry.KeyID, entry.Allowed)
	}
	return err
}

func (s *Service) lookup(keyID string) (*masterKey, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mk, ok := s.keys[keyID]
	if !ok {
		return nil, fmt.Errorf("kms: %q: %w", keyID, ErrKeyNotFound)
	}
	return mk, nil
}

// wrap seals a data key under a master key and prefixes the key id so
// Decrypt can locate the master key from the blob alone.
func (s *Service) wrap(mk *masterKey, dataKey []byte) ([]byte, error) {
	sealed, err := mk.key.Seal(dataKey, []byte("kms:"+mk.id))
	if err != nil {
		return nil, fmt.Errorf("kms: wrapping data key: %w", err)
	}
	idBytes := []byte(mk.id)
	out := make([]byte, 0, 2+len(idBytes)+len(sealed))
	var lenBuf [2]byte
	binary.BigEndian.PutUint16(lenBuf[:], uint16(len(idBytes)))
	out = append(out, lenBuf[:]...)
	out = append(out, idBytes...)
	return append(out, sealed...), nil
}

// splitBlob splits a wrapped blob into its key id bytes and the
// sealed data key, both views of blob.
func splitBlob(blob []byte) (keyID, sealed []byte, err error) {
	if len(blob) < 2 {
		return nil, nil, ErrBadBlob
	}
	n := int(binary.BigEndian.Uint16(blob[:2]))
	if len(blob) < 2+n {
		return nil, nil, ErrBadBlob
	}
	return blob[2 : 2+n], blob[2+n:], nil
}
