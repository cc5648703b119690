// Package sealedbox implements the PGP-style asymmetric encryption the
// paper names for inbound mail ("use Lambda as a hook to encrypt email
// (e.g., using PGP encryption) before storing it"): anyone holding the
// recipient's public key can seal; only the private key — which lives
// on the user's devices and never in the cloud — can open.
//
// Sealing mail to the user's public key strengthens the deployment
// beyond the paper's baseline threat model: for message *contents*,
// even KMS leaves the trusted computing base, because the data key in
// KMS protects only the mailbox index, not the bodies.
//
// Construction (stdlib-only): ephemeral X25519 → shared secret →
// SHA-256(shared || ephemeralPub || recipientPub) as an AES-256-GCM
// key. Blobs carry the same 4-byte "DIY" magic as envelope ciphertext
// (tag 'P'), so they satisfy the sealed-writes bucket policy.
package sealedbox

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
)

// magic matches internal/crypto/envelope's sealed header (first four
// bytes) with a distinct 'P' tag for public-key blobs.
var magic = []byte{'D', 'I', 'Y', 1, 'P'}

const (
	keySize   = 32
	nonceSize = 12
)

// Errors returned by this package.
var (
	ErrNotSealedBox = errors.New("sealedbox: blob is not a sealed box")
	ErrCorrupt      = errors.New("sealedbox: ciphertext corrupt or wrong key")
)

// PublicKey is an X25519 public key.
type PublicKey struct{ k *ecdh.PublicKey }

// PrivateKey is an X25519 private key; it belongs on the user's
// devices, never in cloud storage or function config.
type PrivateKey struct{ k *ecdh.PrivateKey }

// GenerateKeys returns a fresh recipient keypair.
func GenerateKeys() (PublicKey, PrivateKey, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return PublicKey{}, PrivateKey{}, fmt.Errorf("sealedbox: generating keys: %w", err)
	}
	return PublicKey{k: priv.PublicKey()}, PrivateKey{k: priv}, nil
}

// Bytes exports the public key for distribution.
func (p PublicKey) Bytes() []byte { return p.k.Bytes() }

// ParsePublicKey imports a distributed public key.
func ParsePublicKey(b []byte) (PublicKey, error) {
	k, err := ecdh.X25519().NewPublicKey(b)
	if err != nil {
		return PublicKey{}, fmt.Errorf("sealedbox: parsing public key: %w", err)
	}
	return PublicKey{k: k}, nil
}

// Seal encrypts plaintext to the recipient. The sender is anonymous:
// only an ephemeral key is transmitted.
func Seal(to PublicKey, plaintext, aad []byte) ([]byte, error) {
	if to.k == nil {
		return nil, errors.New("sealedbox: nil recipient key")
	}
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("sealedbox: ephemeral key: %w", err)
	}
	shared, err := eph.ECDH(to.k)
	if err != nil {
		return nil, fmt.Errorf("sealedbox: ecdh: %w", err)
	}
	aead, err := newAEAD(deriveKey(shared, eph.PublicKey().Bytes(), to.k.Bytes()))
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, nonceSize)
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("sealedbox: nonce: %w", err)
	}
	out := make([]byte, 0, len(magic)+keySize+nonceSize+len(plaintext)+aead.Overhead())
	out = append(out, magic...)
	out = append(out, eph.PublicKey().Bytes()...)
	out = append(out, nonce...)
	return aead.Seal(out, nonce, plaintext, aad), nil
}

// Open decrypts a sealed box with the recipient's private key.
func Open(priv PrivateKey, blob, aad []byte) ([]byte, error) {
	if !IsSealedBox(blob) {
		return nil, ErrNotSealedBox
	}
	if priv.k == nil {
		return nil, errors.New("sealedbox: nil private key")
	}
	body := blob[len(magic):]
	if len(body) < keySize+nonceSize+16 {
		return nil, ErrCorrupt
	}
	ephPub, err := ecdh.X25519().NewPublicKey(body[:keySize])
	if err != nil {
		return nil, ErrCorrupt
	}
	shared, err := priv.k.ECDH(ephPub)
	if err != nil {
		return nil, ErrCorrupt
	}
	aead, err := newAEAD(deriveKey(shared, ephPub.Bytes(), priv.k.PublicKey().Bytes()))
	if err != nil {
		return nil, err
	}
	nonce := body[keySize : keySize+nonceSize]
	pt, err := aead.Open(nil, nonce, body[keySize+nonceSize:], aad)
	if err != nil {
		return nil, ErrCorrupt
	}
	return pt, nil
}

// IsSealedBox reports whether a blob carries the sealed-box header.
func IsSealedBox(blob []byte) bool {
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

func deriveKey(shared, ephPub, rcptPub []byte) []byte {
	h := sha256.New()
	h.Write(shared)
	h.Write(ephPub)
	h.Write(rcptPub)
	return h.Sum(nil)
}

func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("sealedbox: %w", err)
	}
	return cipher.NewGCM(block)
}
