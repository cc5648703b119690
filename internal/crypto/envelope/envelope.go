// Package envelope implements the envelope encryption DIY applications
// apply to all data at rest: a per-object (or per-deployment) 256-bit
// data key encrypts the payload with AES-GCM, and the data key itself
// is stored only in wrapped form, encrypted by a KMS master key that
// never leaves the key management service.
//
// Sealed blobs carry a recognizable header so the enforcement layer in
// internal/core can verify that nothing written to cloud storage is
// plaintext (one of the paper's testable privacy invariants).
package envelope

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
)

// KeySize is the data key length in bytes (AES-256).
const KeySize = 32

// magic prefixes every sealed blob: "DIY" plus a format version.
var magic = []byte{'D', 'I', 'Y', 1}

const nonceSize = 12

// Errors returned by this package.
var (
	ErrNotSealed  = errors.New("envelope: blob is not a sealed envelope")
	ErrBadKeySize = errors.New("envelope: data key must be 32 bytes")
	ErrCorrupt    = errors.New("envelope: ciphertext corrupt or wrong key")
)

// NewDataKey generates a fresh random data key.
func NewDataKey() ([]byte, error) {
	k := make([]byte, KeySize)
	if _, err := rand.Read(k); err != nil {
		return nil, fmt.Errorf("envelope: generating data key: %w", err)
	}
	return k, nil
}

// Seal encrypts plaintext under key with AES-256-GCM, binding the
// optional associated data aad (e.g. the object's storage path, so a
// ciphertext cannot be swapped between locations undetected). The
// returned blob is magic || nonce || ciphertext.
func Seal(key, plaintext, aad []byte) ([]byte, error) {
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, nonceSize)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("envelope: generating nonce: %w", err)
	}
	out := make([]byte, 0, len(magic)+nonceSize+len(plaintext)+aead.Overhead())
	out = append(out, magic...)
	out = append(out, nonce...)
	return aead.Seal(out, nonce, plaintext, aad), nil
}

// Open decrypts a blob produced by Seal with the same key and aad.
func Open(key, blob, aad []byte) ([]byte, error) {
	if !IsSealed(blob) {
		return nil, ErrNotSealed
	}
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	body := blob[len(magic):]
	if len(body) < nonceSize+aead.Overhead() {
		return nil, ErrCorrupt
	}
	nonce, ct := body[:nonceSize], body[nonceSize:]
	pt, err := aead.Open(nil, nonce, ct, aad)
	if err != nil {
		return nil, ErrCorrupt
	}
	return pt, nil
}

// IsSealed reports whether the blob carries the sealed-envelope header.
// The core enforcement layer uses this to reject plaintext writes to
// cloud storage.
func IsSealed(blob []byte) bool {
	if len(blob) < len(magic) {
		return false
	}
	for i, b := range magic {
		if blob[i] != b {
			return false
		}
	}
	return true
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	if len(key) != KeySize {
		return nil, ErrBadKeySize
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("envelope: %w", err)
	}
	return cipher.NewGCM(block)
}

// Zero overwrites a key (or any secret) in place. The lambda runtime
// calls this when a container is scrubbed so key material exists in
// memory only while a function executes.
func Zero(secret []byte) {
	for i := range secret {
		secret[i] = 0
	}
}
