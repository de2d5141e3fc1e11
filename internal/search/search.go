// Package search implements EncDBDB's two-phase range search (paper §4.1):
// the dictionary searches EnclDictSearch 1–9, which the enclave executes
// against ciphertexts held in untrusted memory, and the attribute vector
// searches AttrVectSearch 1–9, which run in the untrusted realm.
//
// The dictionary searches are grouped by order option, since the repetition
// options share their search algorithms (EnclDictSearch 4 equals
// EnclDictSearch 1, etc.; paper §4.1):
//
//   - SortedDict   — ED1/ED4/ED7: leftmost + rightmost binary search
//     (Algorithm 1), O(log |D|) loads and decryptions.
//   - RotatedDict  — ED2/ED5/ED8: binary search in the rotation-invariant
//     transformed domain (Algorithms 2 and 3), including the corner case
//     where a run of equal plaintexts wraps around the rotation point. The
//     run's length comes from the dictionary's sealed header and is checked
//     with at most two loads; nothing walks it, so the search costs
//     O(log |D|) loads for every rotation offset.
//   - UnsortedDict — ED3/ED6/ED9: linear scan (Algorithm 4), O(|D|) loads
//     and decryptions.
//
// All functions access ciphertexts exclusively through the Region and
// Decryptor interfaces so the enclave can meter and observe every untrusted
// memory access, and so the PlainDBDB baseline can reuse the identical
// algorithms with an identity Decryptor.
package search

import (
	"bytes"
	"errors"
	"fmt"
)

// Region is an indexed sequence of dictionary entries residing in untrusted
// memory. A search copies each entry it reads into a scratch buffer of its
// own, inside the boundary, before decrypting it.
type Region interface {
	// Len returns the number of entries |D|.
	Len() int
	// AppendEntry appends entry i in its self-contained form — a PAE
	// ciphertext, or the raw value for plaintext dictionaries — to dst and
	// returns the extended slice.
	AppendEntry(dst []byte, i int) []byte
}

// Decryptor authenticates and decrypts one dictionary entry payload. It is
// the enclave's per-ECALL decryptor (or a *pae.Cipher) for encrypted
// dictionaries and PlainDecryptor for PlainDBDB. The returned plaintext is
// valid only until the next Decrypt call — the enclave reuses one scratch
// buffer per ECALL — so no search keeps a plaintext across loads without
// copying it.
type Decryptor interface {
	Decrypt(ciphertext []byte) ([]byte, error)
}

// PlainDecryptor is the identity Decryptor used for plaintext dictionaries.
type PlainDecryptor struct{}

// Decrypt returns the payload unchanged.
func (PlainDecryptor) Decrypt(ct []byte) ([]byte, error) { return ct, nil }

// Range is a plaintext search range with per-bound inclusivity. The proxy
// normalizes every filter (equality, inequality, one- and two-sided ranges)
// into this closed/open two-sided form so the untrusted provider cannot
// distinguish query types (paper §4.2 step 5).
type Range struct {
	Start     []byte
	End       []byte
	StartIncl bool
	EndIncl   bool
}

// Eq returns the range matching exactly v.
func Eq(v []byte) Range {
	return Range{Start: v, End: v, StartIncl: true, EndIncl: true}
}

// Closed returns the inclusive range [start, end].
func Closed(start, end []byte) Range {
	return Range{Start: start, End: end, StartIncl: true, EndIncl: true}
}

// Contains reports whether v falls into r.
func (r Range) Contains(v []byte) bool {
	cs := bytes.Compare(v, r.Start)
	if cs < 0 || (cs == 0 && !r.StartIncl) {
		return false
	}
	ce := bytes.Compare(v, r.End)
	if ce > 0 || (ce == 0 && !r.EndIncl) {
		return false
	}
	return true
}

// Empty reports whether r cannot match any value.
func (r Range) Empty() bool {
	c := bytes.Compare(r.Start, r.End)
	return c > 0 || (c == 0 && !(r.StartIncl && r.EndIncl))
}

// VidRange is an inclusive range of ValueIDs [Lo, Hi] returned by the sorted
// and rotated dictionary searches.
type VidRange struct {
	Lo uint32
	Hi uint32
}

// Count returns the number of ValueIDs covered by v.
func (v VidRange) Count() int { return int(v.Hi) - int(v.Lo) + 1 }

// ErrDecrypt wraps decryption failures during a dictionary search; it
// indicates tampered ciphertexts or a wrong column key.
var ErrDecrypt = errors.New("search: dictionary entry failed to decrypt")

// ErrTailRun reports a rotated dictionary whose sealed wrapped-run length
// does not match its entries: a header from another build of the column, or
// a tampered one.
var ErrTailRun = errors.New("search: sealed tail run does not match the dictionary")

// reader is one search's access to its dictionary: it copies each entry
// into one reused scratch buffer, then decrypts it.
type reader struct {
	r   Region
	dec Decryptor
	ent []byte
}

// value loads entry i and decrypts it. The plaintext is valid until the
// next call.
func (d *reader) value(i int) ([]byte, error) {
	d.ent = d.r.AppendEntry(d.ent[:0], i)
	v, err := d.dec.Decrypt(d.ent)
	if err != nil {
		return nil, fmt.Errorf("%w: entry %d: %v", ErrDecrypt, i, err)
	}
	return v, nil
}

// startAdmits reports whether value v satisfies the range's lower bound.
func startAdmits(q Range, v []byte) bool {
	c := bytes.Compare(v, q.Start)
	return c > 0 || (c == 0 && q.StartIncl)
}

// endAdmits reports whether value v satisfies the range's upper bound.
func endAdmits(q Range, v []byte) bool {
	c := bytes.Compare(v, q.End)
	return c < 0 || (c == 0 && q.EndIncl)
}
