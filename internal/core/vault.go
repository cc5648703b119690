package core

import (
	"encoding/hex"
	"errors"
	"fmt"

	"repro/internal/cloudsim/lambda"
	"repro/internal/cloudsim/s3"
	"repro/internal/crypto/envelope"
)

// Vault is one invocation's sealed state: the deployment's data key,
// unwrapped by KMS for the length of the invocation and expanded once,
// and the deployment's bucket, in which every object it reads or writes
// is sealed under that key with the object's storage name as AAD.
type Vault struct {
	env    *lambda.Env
	key    envelope.Key
	bucket string
}

// OpenVault unwraps the deployment data key named in the function's
// configuration. It costs one KMS request unless the container has the
// key cached, so a handler opens it once per invocation, and only on
// the paths that touch sealed state.
func OpenVault(env *lambda.Env) (*Vault, error) {
	wrapped, err := hex.DecodeString(env.Config(ConfigWrappedKey))
	if err != nil {
		return nil, fmt.Errorf("core: bad wrapped key config: %w", err)
	}
	raw, err := env.DataKey(wrapped)
	if err != nil {
		return nil, err
	}
	key, err := envelope.NewKey(raw)
	if err != nil {
		return nil, err
	}
	return &Vault{env: env, key: key, bucket: env.Config(ConfigBucket)}, nil
}

// Key is the invocation's data key, for what is sealed outside the
// bucket: queue notices, and table items.
func (v *Vault) Key() envelope.Key { return v.key }

// Bucket is the deployment's bucket.
func (v *Vault) Bucket() string { return v.bucket }

// Get reads object name from the deployment's bucket as stored, with
// no data key: a Vault's Load opens what it reads, and an object sealed
// to a key the function does not hold is passed on as it is. It is the
// one place that turns a read into "found", "not found" or an error.
// Only a missing object is "not found" (found false, nil error); any
// other read failure is an error, since a caller that took an
// unreadable object for an absent one would write empty state over it.
func Get(env *lambda.Env, name string) (blob []byte, found bool, err error) {
	obj, err := env.S3().Get(env.Ctx(), env.Config(ConfigBucket), name)
	if errors.Is(err, s3.ErrNoSuchKey) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("core: reading %s: %w", name, err)
	}
	return obj.Data, true, nil
}

// Load is Get, then Open with aad = name. The plaintext lives in the
// container's arena (lambda.Env.Scratch) and is zeroed when the
// invocation ends: a handler that returns it, or keeps it or a string
// decoded from it past the invocation, copies it first (DESIGN §5).
func (v *Vault) Load(name string) (plaintext []byte, found bool, err error) {
	blob, found, err := Get(v.env, name)
	if !found || err != nil {
		return nil, found, err
	}
	pt, err := v.Open(blob, name)
	if err != nil {
		return nil, false, err
	}
	return pt, true, nil
}

// Open opens blob, sealed under the vault's key with aad = name, into
// the container's arena, as Load does for what it reads from the
// bucket: the path for sealed state kept outside it, such as table
// items.
func (v *Vault) Open(blob []byte, name string) ([]byte, error) {
	// The aad goes in the arena too: a []byte(name) passed through the
	// AEAD interface would be a heap copy per call.
	buf := v.env.Scratch(len(name) + max(len(blob)-envelope.Header-envelope.Overhead, 0))
	aad := append(buf, name...)
	pt, err := v.key.OpenTo(aad[len(aad):], blob, aad[:len(aad):len(aad)])
	if err != nil {
		return nil, fmt.Errorf("core: opening %s: %w", name, err)
	}
	return pt, nil
}

// Save seals buf (an envelope.NewBuffer the plaintext was appended to)
// in place with aad = name and writes it as object name.
func (v *Vault) Save(name string, buf []byte) error {
	sealed, err := v.key.SealInPlace(buf, []byte(name))
	if err != nil {
		return err
	}
	return v.env.S3().Put(v.env.Ctx(), v.bucket, name, sealed)
}

// Put seals plaintext with aad = name and writes it as object name.
func (v *Vault) Put(name string, plaintext []byte) error {
	sealed, err := v.key.Seal(plaintext, []byte(name))
	if err != nil {
		return err
	}
	return v.env.S3().Put(v.env.Ctx(), v.bucket, name, sealed)
}
