// Package pae implements the probabilistic authenticated encryption scheme
// used throughout EncDBDB (paper §2.3): AES-128 in GCM mode with 96-bit
// initialization vectors, plus the hierarchical key derivation of §4.2 (the
// per-dictionary key SK_D is derived from the database master key SK_DB,
// the table name and the column name).
//
// Ciphertexts are self-contained: IV || GCM(ciphertext || tag). Decryption
// authenticates and returns the original plaintext, or an error if the
// ciphertext was tampered with or produced under a different key.
//
// Encrypt draws each IV at random. Seal takes the IV from its caller, who
// must never repeat one under a key: a main-store dictionary derives entry
// i's IV from a per-build random salt and i (package dict), so it stores
// only ciphertext || tag and rebuilds the self-contained form on load.
package pae

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
)

const (
	// KeySize is the AES-128 key size in bytes.
	KeySize = 16
	// IVSize is the GCM nonce size in bytes.
	IVSize = 12
	// TagSize is the GCM authentication tag size in bytes.
	TagSize = 16
	// Overhead is the ciphertext expansion per value: IV plus GCM tag.
	Overhead = IVSize + TagSize
)

var (
	// ErrAuth is returned when a ciphertext fails authentication, e.g.
	// because it was modified or encrypted under a different key.
	ErrAuth = errors.New("pae: message authentication failed")
	// ErrCiphertextTooShort is returned for ciphertexts shorter than the
	// fixed IV+tag overhead.
	ErrCiphertextTooShort = errors.New("pae: ciphertext too short")
	// ErrBadKeySize is returned when a key is not KeySize bytes long.
	ErrBadKeySize = errors.New("pae: key must be 16 bytes")
)

// Key is a symmetric PAE key.
type Key []byte

// Gen generates a fresh random key (the paper's PAE Gen(1^λ)).
func Gen() (Key, error) {
	k := make(Key, KeySize)
	if _, err := io.ReadFull(rand.Reader, k); err != nil {
		return nil, fmt.Errorf("pae: generate key: %w", err)
	}
	return k, nil
}

// MustGen is Gen for contexts where key generation cannot reasonably fail
// (tests, examples). It panics on error.
func MustGen() Key {
	k, err := Gen()
	if err != nil {
		panic(err)
	}
	return k
}

// Derive derives the column-specific key SK_D from the master key SK_DB, a
// table name and a column name (paper §4.2 step 3). Derivation is
// deterministic: the proxy and the enclave independently compute the same
// SK_D. It is implemented as HMAC-SHA-256(SK_DB, label) truncated to the
// AES-128 key size, with an injective encoding of the label parts.
func Derive(master Key, table, column string) (Key, error) {
	if len(master) != KeySize {
		return nil, ErrBadKeySize
	}
	mac := hmac.New(sha256.New, master)
	writeLenPrefixed(mac, "encdbdb/column-key/v1")
	writeLenPrefixed(mac, table)
	writeLenPrefixed(mac, column)
	return Key(mac.Sum(nil)[:KeySize]), nil
}

// writeLenPrefixed writes a length-prefixed string, making the (table,
// column) encoding injective so that e.g. ("ab","c") != ("a","bc").
func writeLenPrefixed(w io.Writer, s string) {
	var hdr [4]byte
	hdr[0] = byte(len(s) >> 24)
	hdr[1] = byte(len(s) >> 16)
	hdr[2] = byte(len(s) >> 8)
	hdr[3] = byte(len(s))
	w.Write(hdr[:]) //nolint:errcheck // hash writers never fail
	io.WriteString(w, s)
}

// Cipher is a reusable encryptor/decryptor for a single key. Creating the
// AES block cipher and GCM instance once and reusing it is significantly
// faster than re-deriving them per value; dictionary searches decrypt up to
// |D| values per query.
type Cipher struct {
	aead cipher.AEAD
}

// NewCipher constructs a Cipher for the given key.
func NewCipher(key Key) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, ErrBadKeySize
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("pae: new cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("pae: new gcm: %w", err)
	}
	return &Cipher{aead: aead}, nil
}

// Encrypt encrypts plaintext under a fresh random IV (the paper's PAE Enc).
// Repeated encryptions of equal plaintexts yield distinct ciphertexts except
// with negligible probability.
func (c *Cipher) Encrypt(plaintext []byte) ([]byte, error) {
	out := make([]byte, IVSize, IVSize+len(plaintext)+TagSize)
	if _, err := io.ReadFull(rand.Reader, out[:IVSize]); err != nil {
		return nil, fmt.Errorf("pae: generate iv: %w", err)
	}
	return c.aead.Seal(out, out[:IVSize], plaintext, nil), nil
}

// Seal appends GCM(plaintext) — ciphertext || tag, without the IV — under iv
// to dst and returns the extended slice. iv must be IVSize bytes and must
// never have sealed anything else under this key: GCM loses both secrecy and
// integrity when an IV repeats. iv followed by the appended bytes is the
// self-contained form Decrypt takes.
func (c *Cipher) Seal(dst, iv, plaintext []byte) []byte {
	return c.aead.Seal(dst, iv, plaintext, nil)
}

// Decrypt authenticates and decrypts a ciphertext produced by Encrypt (the
// paper's PAE Dec). The result is a fresh slice.
func (c *Cipher) Decrypt(ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < Overhead {
		return nil, ErrCiphertextTooShort
	}
	pt, err := c.aead.Open(nil, ciphertext[:IVSize], ciphertext[IVSize:], nil)
	if err != nil {
		return nil, ErrAuth
	}
	return pt, nil
}

// DecryptInto authenticates and decrypts ciphertext, appending the plaintext
// to dst and returning the extended slice. It allows callers on the hot path
// (the enclave's dictionary scan) to reuse a buffer across decryptions.
func (c *Cipher) DecryptInto(dst, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < Overhead {
		return nil, ErrCiphertextTooShort
	}
	out, err := c.aead.Open(dst, ciphertext[:IVSize], ciphertext[IVSize:], nil)
	if err != nil {
		return nil, ErrAuth
	}
	return out, nil
}

// CiphertextLen returns the ciphertext length for a plaintext of length n.
func CiphertextLen(n int) int { return n + Overhead }

// Encrypt is a convenience wrapper constructing a throwaway Cipher.
func Encrypt(key Key, plaintext []byte) ([]byte, error) {
	c, err := NewCipher(key)
	if err != nil {
		return nil, err
	}
	return c.Encrypt(plaintext)
}

// Decrypt is a convenience wrapper constructing a throwaway Cipher.
func Decrypt(key Key, ciphertext []byte) ([]byte, error) {
	c, err := NewCipher(key)
	if err != nil {
		return nil, err
	}
	return c.Decrypt(ciphertext)
}
