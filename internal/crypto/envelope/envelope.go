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

// Header is the length of the magic and nonce every sealed blob starts
// with, and Overhead the length of the GCM tag it ends with: a sealed
// blob is Header+Overhead bytes longer than its plaintext.
const (
	Header   = 4 + nonceSize
	Overhead = 16
)

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

// Key is a data key ready for use: NewKey expands the raw key into its
// AES-GCM schedule once, and every Seal, SealInPlace and Open under the
// key reuses it. Whoever holds a data key builds one Key and keeps it
// for as long as it holds the raw key. Key holds no reference to the
// raw key, so zeroing the raw key does not disturb it; the expanded
// schedule itself cannot be zeroed and is dropped with the Key. The
// zero Key is not usable.
type Key struct{ aead cipher.AEAD }

// NewKey expands a KeySize-byte data key.
func NewKey(raw []byte) (Key, error) {
	if len(raw) != KeySize {
		return Key{}, ErrBadKeySize
	}
	block, err := aes.NewCipher(raw)
	if err != nil {
		return Key{}, fmt.Errorf("envelope: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	return Key{aead: aead}, err
}

// Seal encrypts plaintext with AES-256-GCM, binding the optional
// associated data aad (e.g. the object's storage path, so a ciphertext
// cannot be swapped between locations undetected). The returned blob
// is magic || nonce || ciphertext, and the only allocation.
func (k Key) Seal(plaintext, aad []byte) ([]byte, error) {
	out := make([]byte, Header, Header+len(plaintext)+Overhead)
	nonce, err := writeHeader(out)
	if err != nil {
		return nil, err
	}
	return k.aead.Seal(out, nonce, plaintext, aad), nil
}

// NewBuffer returns a buffer for SealInPlace: Header reserved bytes
// with room behind them for n bytes of plaintext and the GCM tag.
// Encoders append the plaintext to it.
func NewBuffer(n int) []byte { return make([]byte, Header, Header+n+Overhead) }

// SealInPlace seals buf[Header:], binding aad, and returns the same
// blob Seal would. The first Header bytes of buf (which must be at
// least that long; NewBuffer makes such a buffer) are reserved and
// overwritten with the magic and nonce, and the ciphertext overwrites
// the plaintext, so with Overhead bytes of spare capacity behind buf
// the blob is buf itself and nothing is allocated; with less, the blob
// is one new buffer. Either way buf's plaintext is gone when
// SealInPlace returns.
func (k Key) SealInPlace(buf, aad []byte) ([]byte, error) {
	nonce, err := writeHeader(buf)
	if err != nil {
		return nil, err
	}
	// GCM permits the ciphertext to overwrite the plaintext exactly.
	return k.aead.Seal(buf[:Header], nonce, buf[Header:], aad), nil
}

// writeHeader writes the magic and a fresh random nonce into
// blob[:Header] and returns the nonce.
func writeHeader(blob []byte) ([]byte, error) {
	copy(blob, magic)
	nonce := blob[len(magic):Header]
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("envelope: generating nonce: %w", err)
	}
	return nonce, nil
}

// Open decrypts a blob produced by Seal or SealInPlace under the same
// key and aad. The plaintext is the only allocation.
func (k Key) Open(blob, aad []byte) ([]byte, error) { return k.OpenTo(nil, blob, aad) }

// OpenTo decrypts as Open does and appends the plaintext to dst,
// returning the extended slice. With len(blob)-Header-Overhead bytes of
// spare capacity in dst it allocates nothing. On failure it returns nil
// and leaves dst[:len(dst)] as it was.
func (k Key) OpenTo(dst, blob, aad []byte) ([]byte, error) {
	if !IsSealed(blob) {
		return nil, ErrNotSealed
	}
	if len(blob) < Header+Overhead {
		return nil, ErrCorrupt
	}
	nonce, ct := blob[len(magic):Header], blob[Header:]
	pt, err := k.aead.Open(dst, nonce, ct, aad)
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

// Zero overwrites a key (or any secret) in place. The lambda runtime
// calls this when a container is scrubbed so key material exists in
// memory only while a function executes.
func Zero(secret []byte) {
	for i := range secret {
		secret[i] = 0
	}
}
