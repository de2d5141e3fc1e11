package enclave

import (
	"crypto/ecdh"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	mrand "math/rand"
	"sync"
	"sync/atomic"

	"github.com/encdbdb/encdbdb/internal/av"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/ordenc"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/search"
)

// DefaultMemoryBudget is the simulated usable enclave page cache: SGX v2
// reserves 128 MB of RAM of which about 96 MB are usable for enclave code
// and data (paper §2.2).
const DefaultMemoryBudget = 96 << 20

// Config configures an enclave launch.
type Config struct {
	// Identity is the enclave's code identity string; its hash is the
	// measurement that remote attestation reports.
	Identity string
	// MemoryBudget is the simulated EPC budget in bytes. Zero means
	// DefaultMemoryBudget.
	MemoryBudget int
	// Observer, if set, receives every untrusted-memory access the
	// enclave performs. It models the honest-but-curious attacker of
	// paper §3.2 and is used by the leakage evaluation.
	Observer AccessObserver
	// PadProbes hardens sorted and rotated dictionary searches against
	// access-pattern analysis: every search issues dummy loads (with
	// dummy decryptions) until it reaches a fixed, size-dependent probe
	// count, so the observable number of untrusted accesses no longer
	// depends on the queried range. The paper treats side channels as
	// orthogonal (§3.2) but designed the enclave to make such
	// mitigations easy to integrate; this is one of them.
	PadProbes bool
}

// AccessObserver sees each untrusted memory access: which column region was
// touched and which entry index was loaded. Everything it observes is
// ciphertext — the point of the leakage evaluation is what the pattern
// itself reveals.
type AccessObserver interface {
	Access(table, column string, index int)
}

// Stats counts the enclave's boundary traffic. Counts land when an ECALL
// returns, not as it works.
type Stats struct {
	// ECalls is the number of enclave entries. EncDBDB needs exactly one
	// per dictionary search (paper §5: "only one context switch is
	// necessary for each query").
	ECalls uint64
	// Loads is the number of dictionary entries pulled in from untrusted
	// memory; BytesLoaded their bytes as AppendEntry appends them, less
	// the IV a main-store entry derives instead of storing.
	Loads       uint64
	BytesLoaded uint64
	// Decryptions and Encryptions count PAE operations inside the enclave.
	Decryptions uint64
	Encryptions uint64
}

// counters is the live, lock-free form of Stats. Each ECALL counts its own
// work in an ecall and adds the totals here once, when it returns (ecall.end),
// so concurrent ECALLs touch these shared words a handful of times per call
// rather than per dictionary entry. They must not share the enclave mutex —
// under the engine's per-table locks, a global mutex here would re-serialize
// exactly the cross-table parallelism those locks exist for.
type counters struct {
	ecalls      atomic.Uint64
	loads       atomic.Uint64
	bytesLoaded atomic.Uint64
	decryptions atomic.Uint64
	encryptions atomic.Uint64
}

// Enclave is the simulated trusted module. All its state — provisioned
// keys, derived ciphers — is private; the untrusted engine interacts with
// it exclusively through the ECALL methods.
type Enclave struct {
	platform    *Platform
	measurement Measurement
	priv        *ecdh.PrivateKey
	budget      int
	observer    AccessObserver
	padProbes   bool

	mu      sync.Mutex
	master  pae.Key
	ciphers map[columnID]*pae.Cipher
	rng     *mrand.Rand

	stats counters
}

// Errors returned by enclave ECALLs.
var (
	ErrNotProvisioned = errors.New("enclave: master key not provisioned")
	ErrUnseal         = errors.New("enclave: unsealing master key failed")
	ErrBudget         = errors.New("enclave: memory budget exceeded")
	ErrBadRange       = errors.New("enclave: malformed query range")
	ErrBadRotOffset   = errors.New("enclave: rotation offset invalid")
)

// Launch creates an enclave on this platform and measures it.
func (p *Platform) Launch(cfg Config) (*Enclave, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("enclave: channel key: %w", err)
	}
	budget := cfg.MemoryBudget
	if budget == 0 {
		budget = DefaultMemoryBudget
	}
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("enclave: seed: %w", err)
	}
	return &Enclave{
		platform:    p,
		measurement: Measure(cfg.Identity),
		priv:        priv,
		budget:      budget,
		observer:    cfg.Observer,
		padProbes:   cfg.PadProbes,
		ciphers:     make(map[columnID]*pae.Cipher),
		rng:         mrand.New(mrand.NewSource(int64(binary.LittleEndian.Uint64(seed[:])))),
	}, nil
}

// Measurement returns the enclave's measurement (public, as in SGX).
func (e *Enclave) Measurement() Measurement { return e.measurement }

// Quote produces a remote attestation quote for the verifier's nonce,
// binding the enclave's provisioning public key.
func (e *Enclave) Quote(nonce []byte) Quote {
	pub := e.priv.PublicKey().Bytes()
	return Quote{
		Measurement: e.measurement,
		PublicKey:   pub,
		Nonce:       append([]byte(nil), nonce...),
		MAC:         e.platform.quoteMAC(e.measurement, pub, nonce),
	}
}

// Provision completes the secure channel: the enclave unseals the master
// database key SK_DB shipped by the data owner (paper Fig. 5 step 2).
func (e *Enclave) Provision(sk SealedKey) error {
	ownerPub, err := ecdh.X25519().NewPublicKey(sk.OwnerPublicKey)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnseal, err)
	}
	shared, err := e.priv.ECDH(ownerPub)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrUnseal, err)
	}
	master, err := pae.Decrypt(channelKey(shared), sk.Ciphertext)
	if err != nil || len(master) != pae.KeySize {
		return ErrUnseal
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.master = pae.Key(master)
	e.ciphers = make(map[columnID]*pae.Cipher)
	return nil
}

// Provisioned reports whether the master key has been deployed.
func (e *Enclave) Provisioned() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.master != nil
}

// Stats returns a snapshot of the boundary counters. An ECALL's counts land
// when it returns, on its error paths too; a call still in flight is not in
// the snapshot, and one returning while the snapshot is read can be in some
// counters but not yet in others. Read it (as every caller does) after the
// traffic being measured has quiesced.
func (e *Enclave) Stats() Stats {
	return Stats{
		ECalls:      e.stats.ecalls.Load(),
		Loads:       e.stats.loads.Load(),
		BytesLoaded: e.stats.bytesLoaded.Load(),
		Decryptions: e.stats.decryptions.Load(),
		Encryptions: e.stats.encryptions.Load(),
	}
}

// ResetStats zeroes the boundary counters.
func (e *Enclave) ResetStats() {
	e.stats.ecalls.Store(0)
	e.stats.loads.Store(0)
	e.stats.bytesLoaded.Store(0)
	e.stats.decryptions.Store(0)
	e.stats.encryptions.Store(0)
}

// columnID keys the enclave's cipher cache.
type columnID struct{ table, column string }

// cipherFor derives (and caches) the column key SK_D and its AES schedule.
func (e *Enclave) cipherFor(table, column string) (*pae.Cipher, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.master == nil {
		return nil, ErrNotProvisioned
	}
	id := columnID{table, column}
	if c, ok := e.ciphers[id]; ok {
		return c, nil
	}
	key, err := pae.Derive(e.master, table, column)
	if err != nil {
		return nil, err
	}
	c, err := pae.NewCipher(key)
	if err != nil {
		return nil, err
	}
	e.ciphers[id] = c
	return c, nil
}

// ColumnMeta identifies the dictionary a search runs against; the query
// evaluation engine attaches it before the ECALL (paper Fig. 5 step 7
// "enriches eD with metadata: the table name, the column name, and the
// column size").
type ColumnMeta struct {
	Table  string
	Column string
	Kind   dict.Kind
	MaxLen int
}

// EncRange is the encrypted filter τ: PAE ciphertexts of the range bounds
// plus inclusivity flags. The proxy converts every filter type into this
// uniform two-sided shape so the provider cannot distinguish query types.
type EncRange struct {
	Start     []byte
	End       []byte
	StartIncl bool
	EndIncl   bool
}

// SearchResult is the output of a dictionary search ECALL: ValueID ranges
// for sorted and rotated dictionaries (at most two), a ValueID list for
// unsorted dictionaries.
type SearchResult struct {
	Ranges []search.VidRange
	IDs    []uint32
}

// DictSearch is the EnclDictSearch ECALL (paper Fig. 5 steps 8-10): it
// derives SK_D, decrypts the query range inside the enclave, and runs the
// dictionary search matching the column's encrypted dictionary kind,
// loading entries from untrusted memory one at a time. The whole search
// costs a single context switch.
func (e *Enclave) DictSearch(meta ColumnMeta, region search.Region, encRndOffset []byte, q EncRange) (SearchResult, error) {
	c, err := e.enter(meta)
	defer c.end()
	if err != nil {
		return SearchResult{}, err
	}
	if err := e.chargeScratch(meta.MaxLen); err != nil {
		return SearchResult{}, err
	}
	rng, err := c.decryptRange(q)
	if err != nil {
		return SearchResult{}, err
	}

	c.use(region)
	c.buf = make([]byte, 0, meta.MaxLen)
	switch meta.Kind.Order() {
	case dict.OrderSorted:
		vr, ok, err := search.SortedDict(c, c, rng)
		if err != nil {
			return SearchResult{}, err
		}
		e.padLoads(c)
		if !ok {
			return SearchResult{}, nil
		}
		return SearchResult{Ranges: []search.VidRange{vr}}, nil
	case dict.OrderRotated:
		tailRun, err := checkRotOffset(c, encRndOffset, region.Len())
		if err != nil {
			return SearchResult{}, err
		}
		enc, err := ordenc.NewEncoder(meta.MaxLen)
		if err != nil {
			return SearchResult{}, err
		}
		ranges, err := search.RotatedDict(c, c, enc, rng, tailRun)
		if errors.Is(err, search.ErrTailRun) {
			return SearchResult{}, fmt.Errorf("%w: %w", ErrBadRotOffset, err)
		}
		if err != nil {
			return SearchResult{}, err
		}
		e.padLoads(c)
		return SearchResult{Ranges: ranges}, nil
	default:
		ids, err := search.UnsortedDict(c, c, rng)
		if err != nil {
			return SearchResult{}, err
		}
		return SearchResult{IDs: ids}, nil
	}
}

// padLoads issues dummy loads (with dummy decryptions) until the call's
// probe count reaches the fixed target for the dictionary size, making the
// observable access count independent of the queried range. No search
// exceeds the target: sorted ones need at most two binary searches, rotated
// ones add the pivot load and at most two run-boundary checks.
func (e *Enclave) padLoads(c *ecall) {
	n := c.Len()
	if !e.padProbes || n == 0 {
		return
	}
	target := 2*bitsCeil(n) + 8
	need := target - int(c.loads)
	if need <= 0 {
		return
	}
	e.mu.Lock()
	idxs := make([]int, need)
	for i := range idxs {
		idxs[i] = e.rng.Intn(n)
	}
	e.mu.Unlock()
	for _, idx := range idxs {
		c.ent = c.AppendEntry(c.ent[:0], idx)
		c.Decrypt(c.ent) //nolint:errcheck // dummy probe, result discarded
	}
}

// bitsCeil returns ceil(log2(n)) + 1 for n >= 1.
func bitsCeil(n int) int {
	b := 0
	for n > 0 {
		b++
		n >>= 1
	}
	return b
}

// decryptRange decrypts and validates the query bounds (Algorithm 1 line 2).
// The bounds live for the whole search, so they do not use the call's
// scratch buffer.
func (c *ecall) decryptRange(q EncRange) (search.Range, error) {
	start, err := c.c.Decrypt(q.Start)
	if err != nil {
		return search.Range{}, fmt.Errorf("%w: start bound: %v", ErrBadRange, err)
	}
	end, err := c.c.Decrypt(q.End)
	if err != nil {
		return search.Range{}, fmt.Errorf("%w: end bound: %v", ErrBadRange, err)
	}
	c.decryptions += 2
	// Bounds follow column value rules except that the all-0xFF padding
	// sentinel for +inf of short columns is produced at full width.
	if len(start) > c.meta.MaxLen || len(end) > c.meta.MaxLen {
		return search.Range{}, fmt.Errorf("%w: bound exceeds column width", ErrBadRange)
	}
	for _, b := range [][]byte{start, end} {
		for _, c := range b {
			if c == 0 {
				return search.Range{}, fmt.Errorf("%w: bound contains NUL", ErrBadRange)
			}
		}
	}
	return search.Range{Start: start, End: end, StartIncl: q.StartIncl, EndIncl: q.EndIncl}, nil
}

// checkRotOffset decrypts the rotation header inside the enclave (Algorithm
// 2 line 3), validates both fields against the dictionary size and returns
// the sealed wrapped-run length, which search.RotatedDict verifies against
// the entries. The offset itself is not otherwise needed: the rotated search
// operates purely in the transformed domain, which keeps its access pattern
// independent of the offset.
func checkRotOffset(dec search.Decryptor, encRndOffset []byte, dictLen int) (int, error) {
	raw, err := dec.Decrypt(encRndOffset)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRotOffset, err)
	}
	off, tailRun, err := dict.DecodeRotOffset(raw)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrBadRotOffset, err)
	}
	if dictLen > 0 && (int64(off) >= int64(dictLen) || int64(tailRun) >= int64(dictLen)) {
		return 0, fmt.Errorf("%w: offset %d, tail run %d for |D| = %d", ErrBadRotOffset, off, tailRun, dictLen)
	}
	return int(tailRun), nil
}

// ReencryptValue is the delta-store insert ECALL (paper §4.3): a value
// arriving from the proxy is re-encrypted with a fresh IV before being
// appended to the ED9 delta dictionary, unlinking the stored ciphertext from
// the query ciphertext.
func (e *Enclave) ReencryptValue(meta ColumnMeta, ciphertext []byte) ([]byte, error) {
	c, err := e.enter(meta)
	defer c.end()
	if err != nil {
		return nil, err
	}
	v, err := c.c.Decrypt(ciphertext)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRange, err)
	}
	c.decryptions++
	enc, err := ordenc.NewEncoder(meta.MaxLen)
	if err != nil {
		return nil, err
	}
	if err := enc.Validate(v); err != nil {
		return nil, err
	}
	out, err := c.c.Encrypt(v)
	if err != nil {
		return nil, err
	}
	c.encryptions++
	return out, nil
}

// BuildColumn is the trusted-setup ECALL (paper §4.2: "In one possible
// EncDBDB variant, the DBaaS provider is assumed trusted for the initial
// setup. The data owner can upload plaintext columns ... Afterwards, the
// DBaaS performs the appropriate column splits and encryptions."): the
// enclave splits an uploaded plaintext column under the column's encrypted
// dictionary and encrypts it with SK_D, so the owner needs no local build
// tooling. Outside this deliberately chosen variant, plaintext never
// reaches the provider.
func (e *Enclave) BuildColumn(meta ColumnMeta, bsmax int, values [][]byte) (*dict.Split, error) {
	c, err := e.enter(meta)
	defer c.end()
	if err != nil {
		return nil, err
	}
	split, err := dict.Build(values, dict.Params{
		Kind:   meta.Kind,
		MaxLen: meta.MaxLen,
		BSMax:  bsmax,
		Cipher: c.c,
		Rand:   e.callRand(),
	})
	if err != nil {
		return nil, fmt.Errorf("enclave: trusted-setup build: %w", err)
	}
	c.encryptions += uint64(split.Len())
	return split, nil
}

// MergeInput is one store participating in a delta merge: the dictionary
// region, attribute vector (nil for a delta tail, whose row i references
// entry i), and validity flags (nil means all rows valid).
type MergeInput struct {
	Region search.Region
	AV     *av.Vector
	Valid  []bool
}

// MergeColumns is the delta-merge ECALL (paper §4.3): it reconstructs the
// valid rows of the given stores — conventionally the main store followed by
// the sealed delta runs in chain order, then the tail — inside the enclave,
// re-encrypts every value with fresh IVs, and rebuilds the column under the
// column's encrypted dictionary kind with a fresh rotation offset or shuffle. The
// returned split carries no linkable relation to the old stores. The whole
// rebuild costs a single context switch regardless of how many delta runs
// participate.
func (e *Enclave) MergeColumns(meta ColumnMeta, bsmax int, inputs ...MergeInput) (*dict.Split, error) {
	c, err := e.enter(meta)
	defer c.end()
	if err != nil {
		return nil, err
	}
	var col [][]byte
	for _, in := range inputs {
		if col, err = c.decryptRows(col, in); err != nil {
			return nil, err
		}
	}
	split, err := dict.Build(col, dict.Params{
		Kind:   meta.Kind,
		MaxLen: meta.MaxLen,
		BSMax:  bsmax,
		Cipher: c.c,
		Rand:   e.callRand(),
	})
	if err != nil {
		return nil, fmt.Errorf("enclave: merge rebuild: %w", err)
	}
	c.encryptions += uint64(split.Len())
	return split, nil
}

// decryptRows appends the valid rows of one store, materialized inside the
// enclave, to col. Each entry a valid row references is decrypted once, in
// dictionary order, so the head is read sequentially and the row pass after
// it is a loop of independent loads. The plaintexts outlive the next load,
// so they do not use the call's scratch buffer: they are cut from arena
// chunks of mergeArenaChunk bytes, one allocation per chunk instead of one
// per entry.
func (c *ecall) decryptRows(col [][]byte, in MergeInput) ([][]byte, error) {
	if in.Region == nil {
		return col, nil
	}
	c.use(in.Region)
	var codes []uint32
	if in.AV != nil {
		codes = in.AV.Unpack()
	} else { // a tail: row j references entry j
		codes = make([]uint32, c.Len())
		for j := range codes {
			codes[j] = uint32(j)
		}
	}
	need := make([]bool, c.Len())
	for j, vid := range codes {
		if in.Valid != nil && !in.Valid[j] {
			continue
		}
		if int(vid) >= len(need) {
			return nil, fmt.Errorf("enclave: merge: ValueID %d out of range", vid)
		}
		need[vid] = true
	}
	plain := make([][]byte, len(need))
	var arena []byte
	for vid, ok := range need {
		if !ok {
			continue
		}
		c.ent = c.AppendEntry(c.ent[:0], vid)
		ct := c.ent
		if cap(arena)-len(arena) < len(ct) {
			arena = make([]byte, 0, max(mergeArenaChunk, len(ct)))
		}
		v, err := c.c.DecryptInto(arena, ct)
		if err != nil {
			return nil, fmt.Errorf("enclave: merge: entry %d: %w", vid, err)
		}
		c.decryptions++
		plain[vid] = v[len(arena):len(v):len(v)]
		arena = v
	}
	for j, vid := range codes {
		if in.Valid == nil || in.Valid[j] {
			col = append(col, plain[vid])
		}
	}
	return col, nil
}

// mergeArenaChunk is the allocation unit of decryptRows' plaintexts.
const mergeArenaChunk = 64 << 10

// chargeScratch models the EPC budget: a dictionary search needs a constant
// working set (a few value-width buffers plus one entry buffer), never the
// dictionary itself — the paper stresses that required enclave memory is
// independent of |D|. The entry buffer is charged at the largest entry the
// column admits, a value of maxLen bytes with its PAE overhead and a length
// prefix, so the charge reads no entry and depends on no data. An enclave
// configured with a tiny budget (for tests) rejects searches whose working
// set would not fit.
func (e *Enclave) chargeScratch(maxLen int) error {
	entry := maxLen + pae.Overhead + binary.MaxVarintLen32
	need := 4*maxLen + entry + 4096
	if need > e.budget {
		return fmt.Errorf("%w: need %d bytes, budget %d", ErrBudget, need, e.budget)
	}
	return nil
}

// callRand derives an independent generator for one ECALL's shuffles and
// rotations. Build/merge ECALLs on different tables run concurrently under
// the engine's per-table locks, and math/rand.Rand is not safe for shared
// use, so each call seeds its own generator under the enclave lock.
func (e *Enclave) callRand() *mrand.Rand {
	e.mu.Lock()
	defer e.mu.Unlock()
	return mrand.New(mrand.NewSource(e.rng.Int63()))
}

// enter starts an ECALL on meta's column: it derives the column cipher and
// returns the call's counting state. The caller defers end at once, before
// checking the error, so every path — a failed key lookup included — is
// counted.
func (e *Enclave) enter(meta ColumnMeta) (*ecall, error) {
	c := &ecall{e: e, meta: meta}
	cipher, err := e.cipherFor(meta.Table, meta.Column)
	c.c = cipher
	return c, err
}

// ecall is one ECALL's view of untrusted memory and of its column key: the
// search.Region and search.Decryptor a dictionary search runs against, and
// the loader a merge reads its stores through. Every entry it loads is
// copied into enclave memory — the search's scratch, or ent for a merge or
// a padding probe — before anything decrypts it, so no untrusted byte is
// read twice. It reports each load to the observer as it happens, but
// counts loads, bytes and PAE operations in plain fields that end adds to
// the enclave's shared counters once, when the ECALL returns — per-entry
// atomics on the one cache line every concurrent ECALL shares cost more than
// a quarter of the decryptions they counted. AppendEntry and Decrypt are
// for the ECALL's own goroutine only; the call and the region it holds are
// dropped when the ECALL returns.
type ecall struct {
	e       *Enclave
	meta    ColumnMeta
	c       *pae.Cipher
	r       search.Region
	derived int    // bytes of each entry r appends that it derives, not loads
	ent     []byte // a merge's or padding probe's copy of one entry
	buf     []byte // Decrypt's scratch: one plaintext, valid until the next Decrypt

	loads, bytesLoaded, decryptions, encryptions uint64
}

// use points the call at region.
func (c *ecall) use(region search.Region) {
	c.r = region
	c.derived = derivedBytes(region)
}

// derivedBytes returns how many bytes of each entry region appends it
// derives instead of reading from untrusted memory: the IV of an encrypted
// split's entry. BytesLoaded counts the rest.
func derivedBytes(region search.Region) int {
	if s, ok := region.(*dict.Split); ok && !s.Plain {
		return pae.IVSize
	}
	return 0
}

// end adds the call's counts to the enclave's counters.
func (c *ecall) end() {
	s := &c.e.stats
	s.ecalls.Add(1)
	s.loads.Add(c.loads)
	s.bytesLoaded.Add(c.bytesLoaded)
	s.decryptions.Add(c.decryptions)
	s.encryptions.Add(c.encryptions)
}

func (c *ecall) Len() int { return c.r.Len() }

// AppendEntry copies entry i from untrusted memory to dst, counting the
// load and reporting it to the observer.
func (c *ecall) AppendEntry(dst []byte, i int) []byte {
	out := c.r.AppendEntry(dst, i)
	c.loads++
	c.bytesLoaded += uint64(len(out) - len(dst) - c.derived)
	if c.e.observer != nil {
		c.e.observer.Access(c.meta.Table, c.meta.Column, i)
	}
	return out
}

// Decrypt decrypts every entry into the call's one scratch buffer, so a
// search costs no allocation per loaded entry. A returned plaintext is
// valid until the next Decrypt, as search.Decryptor allows.
func (c *ecall) Decrypt(ct []byte) ([]byte, error) {
	c.decryptions++
	pt, err := c.c.DecryptInto(c.buf[:0], ct)
	if err != nil {
		return nil, err
	}
	c.buf = pt
	return pt, nil
}
