// Package baseline implements the two comparison systems of the paper's
// evaluation (§6.3):
//
//   - MonetDBSim, a MonetDB-style plaintext column store: string columns use
//     an insertion-ordered dictionary with hash-based deduplication (below a
//     size threshold) and an offset attribute vector, and a range scan
//     performs a linear number of *string* comparisons over the column —
//     the behaviour §6.3 identifies as the reason EncDBDB outperforms it
//     ("MonetDB's attribute vector search performs a linear number of
//     string comparisons").
//   - The storage accounting for the "plaintext file" and "encrypted file"
//     rows of Table 6.
//
// It also keeps the attribute-vector scans the engine no longer runs: the
// per-element AttrVectSearch over an unpacked []uint32 vector, with the
// paper's nested loop, a sorted probe and a bitset as membership tests
// (ablation A1, and the reference the bit-packed kernels are checked
// against).
//
// The PlainDBDB baseline needs no code here: every encrypted dictionary has
// a plaintext twin built into the engine (ColumnDef.Plain).
package baseline

import (
	"bytes"

	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/search"
)

// dedupLimit mirrors MonetDB's behaviour of deduplicating string
// dictionaries only while they are small (§5: "the dictionary does not
// contain duplicates if it is small (below 64 kB)").
const dedupLimit = 64 << 10

// MonetDBSim is a plaintext, insertion-ordered, dictionary-encoded column.
type MonetDBSim struct {
	dict      [][]byte
	dictBytes int
	av        []uint32
	index     map[string]uint32 // hash table with collision handling via Go map
}

// NewMonetDBSim builds the column store for a plaintext column.
func NewMonetDBSim(col [][]byte) *MonetDBSim {
	m := &MonetDBSim{index: make(map[string]uint32)}
	for _, v := range col {
		m.append(v)
	}
	return m
}

// append inserts one value, deduplicating only while the dictionary is
// below the size threshold.
func (m *MonetDBSim) append(v []byte) {
	if m.index != nil {
		if id, ok := m.index[string(v)]; ok {
			m.av = append(m.av, id)
			return
		}
	}
	id := uint32(len(m.dict))
	m.dict = append(m.dict, v)
	m.dictBytes += len(v)
	m.av = append(m.av, id)
	if m.index != nil {
		m.index[string(v)] = id
		if m.dictBytes > dedupLimit {
			// Dictionary grew past the threshold: MonetDB stops
			// consulting the collision list and may store duplicates.
			m.index = nil
		}
	}
}

// Rows returns the number of rows.
func (m *MonetDBSim) Rows() int { return len(m.av) }

// DictLen returns the dictionary entry count (may include duplicates for
// large dictionaries, as in MonetDB).
func (m *MonetDBSim) DictLen() int { return len(m.dict) }

// SizeBytes returns the storage footprint: dictionary payloads plus a
// 4-byte offset per row. This reproduces the paper's MonetDB numbers
// (Table 6: C2 = 13,361 uniques x 10 B + 10.9 M x 4 B = 43 MB).
func (m *MonetDBSim) SizeBytes() int { return m.dictBytes + 4*len(m.av) }

// RangeSearch returns the RecordIDs whose value falls into q. Faithful to
// the modelled engine, it materializes each row's string through the
// dictionary and compares strings linearly over the whole column.
func (m *MonetDBSim) RangeSearch(q search.Range) []uint32 {
	var out []uint32
	for j, id := range m.av {
		if q.Contains(m.dict[id]) {
			out = append(out, uint32(j))
		}
	}
	return out
}

// Get returns the value of row j (for result rendering).
func (m *MonetDBSim) Get(j int) []byte { return m.dict[m.av[j]] }

// PlaintextFileSize is Table 6's "plaintext file": all values
// uncompressed, one per record.
func PlaintextFileSize(col [][]byte) int {
	total := 0
	for _, v := range col {
		total += len(v)
	}
	return total
}

// EncryptedFileSize is Table 6's "encrypted file": every value individually
// PAE-encrypted, i.e. the plaintext file plus the per-value IV+tag
// overhead.
func EncryptedFileSize(col [][]byte) int {
	total := 0
	for _, v := range col {
		total += pae.CiphertextLen(len(v))
	}
	return total
}

// Equal reports whether two columns hold identical values (test helper for
// store comparisons).
func Equal(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}
