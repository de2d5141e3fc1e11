// Package enclave simulates the Intel SGX trusted execution environment
// that EncDBDB runs its dictionary searches in (paper §2.2, §3.1).
//
// Real SGX provides: (1) an isolated memory region whose contents other
// software cannot read, (2) a measured launch whose measurement can be
// remotely attested through Intel's infrastructure, (3) a secure channel
// bootstrapped from attestation for provisioning secrets, and (4) a strict
// ECALL boundary with per-entry cost. This package models all four in
// software:
//
//   - Enclave holds the provisioned master key and derived column keys in
//     private fields; ciphertexts remain in untrusted memory (search.Region)
//     and are pulled across the boundary one entry at a time, each copied
//     into enclave memory before it is decrypted.
//   - Platform plays Intel's role as root of trust: it launches enclaves,
//     measures their code identity, and verifies quotes (HMAC over the
//     measurement under a platform key only the Platform holds).
//   - Provisioning runs an X25519 key agreement against the public key bound
//     into the quote, exactly mirroring SGX remote attestation followed by
//     secret deployment over the established channel (paper Fig. 5, steps
//     1-2).
//   - Every ECALL, untrusted-memory load, copied byte and decryption is
//     counted (Stats), and an AccessObserver can record the exact untrusted
//     access pattern an honest-but-curious operating system would observe —
//     the attacker model of paper §3.2 — which the leakage evaluation uses.
package enclave

import (
	"bytes"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"github.com/encdbdb/encdbdb/internal/pae"
)

// Platform simulates the hardware/Intel root of trust: it launches enclaves
// and verifies their quotes. A data owner trusts a Platform the way they
// trust Intel's attestation service.
type Platform struct {
	key []byte // platform attestation key (stands in for Intel's EPID/DCAP keys)
}

// NewPlatform creates a platform with a fresh attestation key.
func NewPlatform() (*Platform, error) {
	key := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		return nil, fmt.Errorf("enclave: platform key: %w", err)
	}
	return &Platform{key: key}, nil
}

// Measurement is the SGX-style enclave measurement (MRENCLAVE): the SHA-256
// hash of the enclave's initial code and data, here represented by its code
// identity string.
type Measurement [32]byte

// Measure computes the measurement for a code identity string. Data owners
// compute the expected measurement themselves from the identity they audited
// (the paper argues the 1129-line enclave is small enough to verify).
func Measure(identity string) Measurement {
	return sha256.Sum256([]byte("encdbdb/enclave/" + identity))
}

// Quote is a remote attestation quote: it binds the enclave's measurement
// and channel public key to a verifier-chosen nonce, authenticated by the
// platform.
type Quote struct {
	Measurement Measurement
	PublicKey   []byte // enclave's X25519 public key for provisioning
	Nonce       []byte
	MAC         []byte
}

// quoteMAC computes the platform's authentication tag over a quote body.
func (p *Platform) quoteMAC(m Measurement, pub, nonce []byte) []byte {
	mac := hmac.New(sha256.New, p.key)
	mac.Write(m[:])
	var lens [8]byte
	lens[0] = byte(len(pub) >> 8)
	lens[1] = byte(len(pub))
	mac.Write(lens[:2])
	mac.Write(pub)
	mac.Write(nonce)
	return mac.Sum(nil)
}

// Errors returned by quote verification and provisioning.
var (
	ErrQuoteMAC         = errors.New("enclave: quote authentication failed")
	ErrQuoteMeasurement = errors.New("enclave: quote measurement mismatch")
	ErrQuoteNonce       = errors.New("enclave: quote nonce mismatch")
)

// VerifyQuote checks that q was issued by this platform for an enclave with
// the expected measurement and the verifier's nonce.
func (p *Platform) VerifyQuote(q Quote, expected Measurement, nonce []byte) error {
	if !hmac.Equal(q.MAC, p.quoteMAC(q.Measurement, q.PublicKey, q.Nonce)) {
		return ErrQuoteMAC
	}
	if q.Measurement != expected {
		return ErrQuoteMeasurement
	}
	if !bytes.Equal(q.Nonce, nonce) {
		return ErrQuoteNonce
	}
	return nil
}

// SealedKey is a master key encrypted to an attested enclave: the data
// owner's half of the provisioning channel.
type SealedKey struct {
	OwnerPublicKey []byte // owner's ephemeral X25519 public key
	Ciphertext     []byte // PAE ciphertext of the master key under the channel key
}

// SealKey encrypts the master database key SK_DB to the enclave whose
// (verified) quote is q, using an ephemeral X25519 key agreement. Only the
// enclave holding the quote's private key can unseal it.
func SealKey(q Quote, master pae.Key) (SealedKey, error) {
	curve := ecdh.X25519()
	enclavePub, err := curve.NewPublicKey(q.PublicKey)
	if err != nil {
		return SealedKey{}, fmt.Errorf("enclave: quote public key: %w", err)
	}
	ownerPriv, err := curve.GenerateKey(rand.Reader)
	if err != nil {
		return SealedKey{}, fmt.Errorf("enclave: ephemeral key: %w", err)
	}
	shared, err := ownerPriv.ECDH(enclavePub)
	if err != nil {
		return SealedKey{}, fmt.Errorf("enclave: key agreement: %w", err)
	}
	ct, err := pae.Encrypt(channelKey(shared), master)
	if err != nil {
		return SealedKey{}, fmt.Errorf("enclave: seal master key: %w", err)
	}
	return SealedKey{OwnerPublicKey: ownerPriv.PublicKey().Bytes(), Ciphertext: ct}, nil
}

// channelKey derives the provisioning channel's AES key from the X25519
// shared secret.
func channelKey(shared []byte) pae.Key {
	mac := hmac.New(sha256.New, shared)
	mac.Write([]byte("encdbdb/provision/v1"))
	return pae.Key(mac.Sum(nil)[:pae.KeySize])
}
