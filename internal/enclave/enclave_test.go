package enclave_test

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/encdbdb/encdbdb/internal/baseline"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/search"
)

const testIdentity = "encdbdb-test-enclave"

// env is a provisioned enclave plus the owner-side key material.
type env struct {
	platform *enclave.Platform
	enclave  *enclave.Enclave
	master   pae.Key
}

func newEnv(t testing.TB, cfg enclave.Config) *env {
	t.Helper()
	if cfg.Identity == "" {
		cfg.Identity = testIdentity
	}
	p, err := enclave.NewPlatform()
	if err != nil {
		t.Fatalf("NewPlatform: %v", err)
	}
	e, err := p.Launch(cfg)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	master := pae.MustGen()

	// Full attestation + provisioning flow, as the data owner runs it.
	nonce := []byte("owner-nonce-1")
	q := e.Quote(nonce)
	if err := p.VerifyQuote(q, enclave.Measure(cfg.Identity), nonce); err != nil {
		t.Fatalf("VerifyQuote: %v", err)
	}
	sealed, err := enclave.SealKey(q, master)
	if err != nil {
		t.Fatalf("SealKey: %v", err)
	}
	if err := e.Provision(sealed); err != nil {
		t.Fatalf("Provision: %v", err)
	}
	return &env{platform: p, enclave: e, master: master}
}

// buildColumn splits a column under the env's master key for (table, col).
func (v *env) buildColumn(t testing.TB, kind dict.Kind, table, column string, col [][]byte, maxLen, bsmax int) *dict.Split {
	t.Helper()
	key, err := pae.Derive(v.master, table, column)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	c, err := pae.NewCipher(key)
	if err != nil {
		t.Fatalf("NewCipher: %v", err)
	}
	s, err := dict.Build(col, dict.Params{
		Kind: kind, MaxLen: maxLen, BSMax: bsmax, Cipher: c,
		Rand: rand.New(rand.NewSource(77)),
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return s
}

// encRange encrypts a plaintext range for (table, column) like the proxy.
func (v *env) encRange(t testing.TB, table, column string, q search.Range) enclave.EncRange {
	t.Helper()
	key, err := pae.Derive(v.master, table, column)
	if err != nil {
		t.Fatalf("Derive: %v", err)
	}
	c, err := pae.NewCipher(key)
	if err != nil {
		t.Fatalf("NewCipher: %v", err)
	}
	s, err := c.Encrypt(q.Start)
	if err != nil {
		t.Fatalf("Encrypt start: %v", err)
	}
	e, err := c.Encrypt(q.End)
	if err != nil {
		t.Fatalf("Encrypt end: %v", err)
	}
	return enclave.EncRange{Start: s, End: e, StartIncl: q.StartIncl, EndIncl: q.EndIncl}
}

// strs converts strings to a column.
func strs(vs ...string) [][]byte {
	col := make([][]byte, len(vs))
	for i, v := range vs {
		col[i] = []byte(v)
	}
	return col
}

func paperColumn() [][]byte {
	return [][]byte{
		[]byte("Hans"), []byte("Jessica"), []byte("Archie"),
		[]byte("Ella"), []byte("Jessica"), []byte("Jessica"),
	}
}

func TestAttestationRejectsWrongMeasurement(t *testing.T) {
	v := newEnv(t, enclave.Config{})
	q := v.enclave.Quote([]byte("n"))
	err := v.platform.VerifyQuote(q, enclave.Measure("other-code"), []byte("n"))
	if !errors.Is(err, enclave.ErrQuoteMeasurement) {
		t.Errorf("err = %v, want ErrQuoteMeasurement", err)
	}
}

func TestAttestationRejectsWrongNonce(t *testing.T) {
	v := newEnv(t, enclave.Config{})
	q := v.enclave.Quote([]byte("n1"))
	err := v.platform.VerifyQuote(q, enclave.Measure(testIdentity), []byte("n2"))
	if !errors.Is(err, enclave.ErrQuoteNonce) {
		t.Errorf("err = %v, want ErrQuoteNonce", err)
	}
}

func TestAttestationRejectsForgedQuote(t *testing.T) {
	v := newEnv(t, enclave.Config{})
	q := v.enclave.Quote([]byte("n"))
	q.MAC[0] ^= 1
	err := v.platform.VerifyQuote(q, enclave.Measure(testIdentity), []byte("n"))
	if !errors.Is(err, enclave.ErrQuoteMAC) {
		t.Errorf("err = %v, want ErrQuoteMAC", err)
	}
}

func TestAttestationRejectsOtherPlatform(t *testing.T) {
	v := newEnv(t, enclave.Config{})
	other, err := enclave.NewPlatform()
	if err != nil {
		t.Fatal(err)
	}
	q := v.enclave.Quote([]byte("n"))
	if err := other.VerifyQuote(q, enclave.Measure(testIdentity), []byte("n")); err == nil {
		t.Error("foreign platform accepted the quote")
	}
}

func TestProvisionRejectsGarbage(t *testing.T) {
	p, _ := enclave.NewPlatform()
	e, err := p.Launch(enclave.Config{Identity: testIdentity})
	if err != nil {
		t.Fatal(err)
	}
	err = e.Provision(enclave.SealedKey{OwnerPublicKey: make([]byte, 32), Ciphertext: []byte("junk")})
	if !errors.Is(err, enclave.ErrUnseal) {
		t.Errorf("err = %v, want ErrUnseal", err)
	}
	if e.Provisioned() {
		t.Error("enclave claims provisioned after failed unseal")
	}
}

func TestDictSearchRequiresProvisioning(t *testing.T) {
	p, _ := enclave.NewPlatform()
	e, err := p.Launch(enclave.Config{Identity: testIdentity})
	if err != nil {
		t.Fatal(err)
	}
	meta := enclave.ColumnMeta{Table: "t", Column: "c", Kind: dict.ED1, MaxLen: 8}
	_, err = e.DictSearch(meta, emptyRegion{}, nil, enclave.EncRange{})
	if !errors.Is(err, enclave.ErrNotProvisioned) {
		t.Errorf("err = %v, want ErrNotProvisioned", err)
	}
}

type emptyRegion struct{}

func (emptyRegion) Len() int                             { return 0 }
func (emptyRegion) AppendEntry(dst []byte, _ int) []byte { return dst }

func TestDictSearchAllKinds(t *testing.T) {
	v := newEnv(t, enclave.Config{})
	col := paperColumn()
	kinds := []dict.Kind{dict.ED1, dict.ED2, dict.ED3, dict.ED4, dict.ED5, dict.ED6, dict.ED7, dict.ED8, dict.ED9}
	for _, k := range kinds {
		t.Run(k.String(), func(t *testing.T) {
			meta := enclave.ColumnMeta{Table: "t1", Column: "fname", Kind: k, MaxLen: 16}
			s := v.buildColumn(t, k, "t1", "fname", col, 16, 3)
			q := v.encRange(t, "t1", "fname", search.Closed([]byte("Archie"), []byte("Hans")))
			res, err := v.enclave.DictSearch(meta, s, s.EncRndOffset, q)
			if err != nil {
				t.Fatalf("DictSearch: %v", err)
			}
			var rids []uint32
			if k.Order() == dict.OrderUnsorted {
				rids = baseline.AttrVectList(s.AVCodes(), res.IDs, s.Len(), baseline.AVSortedProbe, 1)
			} else {
				rids = baseline.AttrVectRanges(s.AVCodes(), res.Ranges, 1)
			}
			want := []uint32{0, 2, 3} // Hans, Archie, Ella
			if len(rids) != len(want) {
				t.Fatalf("rids = %v, want %v", rids, want)
			}
			for i := range want {
				if rids[i] != want[i] {
					t.Fatalf("rids = %v, want %v", rids, want)
				}
			}
		})
	}
}

func TestDictSearchOneECallPerQuery(t *testing.T) {
	v := newEnv(t, enclave.Config{})
	col := paperColumn()
	meta := enclave.ColumnMeta{Table: "t1", Column: "c", Kind: dict.ED1, MaxLen: 16}
	s := v.buildColumn(t, dict.ED1, "t1", "c", col, 16, 0)
	q := v.encRange(t, "t1", "c", search.Eq([]byte("Hans")))
	v.enclave.ResetStats()
	for i := 0; i < 5; i++ {
		if _, err := v.enclave.DictSearch(meta, s, nil, q); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.enclave.Stats().ECalls; got != 5 {
		t.Errorf("ECalls = %d, want 5 (one per query)", got)
	}
}

func TestDictSearchCountsLoadsAndDecryptions(t *testing.T) {
	v := newEnv(t, enclave.Config{})
	col := paperColumn()
	meta := enclave.ColumnMeta{Table: "t1", Column: "c", Kind: dict.ED9, MaxLen: 16}
	s := v.buildColumn(t, dict.ED9, "t1", "c", col, 16, 0)
	q := v.encRange(t, "t1", "c", search.Eq([]byte("Hans")))
	v.enclave.ResetStats()
	if _, err := v.enclave.DictSearch(meta, s, nil, q); err != nil {
		t.Fatal(err)
	}
	st := v.enclave.Stats()
	// ED9 scans all |D| = |AV| = 6 entries, plus 2 bound decryptions.
	if st.Loads != 6 {
		t.Errorf("Loads = %d, want 6", st.Loads)
	}
	if st.Decryptions != 8 {
		t.Errorf("Decryptions = %d, want 8", st.Decryptions)
	}
	if st.BytesLoaded == 0 {
		t.Error("BytesLoaded = 0")
	}
}

func TestDictSearchRejectsWrongColumnQuery(t *testing.T) {
	// A range encrypted for a different column must not decrypt: the
	// per-column key separation holds across the ECALL boundary.
	v := newEnv(t, enclave.Config{})
	col := paperColumn()
	meta := enclave.ColumnMeta{Table: "t1", Column: "c", Kind: dict.ED1, MaxLen: 16}
	s := v.buildColumn(t, dict.ED1, "t1", "c", col, 16, 0)
	q := v.encRange(t, "t1", "other", search.Eq([]byte("Hans")))
	if _, err := v.enclave.DictSearch(meta, s, nil, q); !errors.Is(err, enclave.ErrBadRange) {
		t.Errorf("err = %v, want ErrBadRange", err)
	}
}

func TestDictSearchRejectsTamperedRotationOffset(t *testing.T) {
	v := newEnv(t, enclave.Config{})
	col := paperColumn()
	meta := enclave.ColumnMeta{Table: "t1", Column: "c", Kind: dict.ED2, MaxLen: 16}
	s := v.buildColumn(t, dict.ED2, "t1", "c", col, 16, 0)
	q := v.encRange(t, "t1", "c", search.Eq([]byte("Hans")))
	bad := append([]byte(nil), s.EncRndOffset...)
	bad[len(bad)-1] ^= 1
	if _, err := v.enclave.DictSearch(meta, s, bad, q); !errors.Is(err, enclave.ErrBadRotOffset) {
		t.Errorf("err = %v, want ErrBadRotOffset", err)
	}
}

func TestDictSearchBudgetExceeded(t *testing.T) {
	v := newEnv(t, enclave.Config{MemoryBudget: 64, Identity: testIdentity})
	col := paperColumn()
	meta := enclave.ColumnMeta{Table: "t1", Column: "c", Kind: dict.ED1, MaxLen: 16}
	s := v.buildColumn(t, dict.ED1, "t1", "c", col, 16, 0)
	q := v.encRange(t, "t1", "c", search.Eq([]byte("Hans")))
	if _, err := v.enclave.DictSearch(meta, s, nil, q); !errors.Is(err, enclave.ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

// TestDictSearchChargesWidestEntry pins the scratch charge of a search:
// four value-width buffers, one entry buffer at the widest entry the column
// admits (MaxLen plus the PAE overhead plus a length prefix) and 4096
// bytes, whatever the dictionary holds. An empty dictionary and one whose
// entry 0 is short are charged alike, and no entry is read to size it.
func TestDictSearchChargesWidestEntry(t *testing.T) {
	const maxLen = 16
	need := 4*maxLen + maxLen + pae.Overhead + binary.MaxVarintLen32 + 4096
	meta := enclave.ColumnMeta{Table: "t1", Column: "c", Kind: dict.ED1, MaxLen: maxLen}
	for _, budget := range []int{need - 1, need} {
		v := newEnv(t, enclave.Config{MemoryBudget: budget, Identity: testIdentity})
		short := v.buildColumn(t, dict.ED1, "t1", "c", strs("a", "sixteen-byte-val"), maxLen, 0)
		q := v.encRange(t, "t1", "c", search.Eq([]byte("a")))
		for name, region := range map[string]search.Region{
			"empty":             dict.Empty(dict.ED1, maxLen, 0, false),
			"short first entry": short,
		} {
			v.enclave.ResetStats()
			_, err := v.enclave.DictSearch(meta, region, nil, q)
			if fits := budget >= need; fits != (err == nil) || (!fits && !errors.Is(err, enclave.ErrBudget)) {
				t.Errorf("%s, budget %d of %d: err = %v", name, budget, need, err)
			}
			if loads := v.enclave.Stats().Loads; budget < need && loads != 0 {
				t.Errorf("%s: a refused search loaded %d entries", name, loads)
			}
		}
	}
}

// TestDictSearchRejectsSwappedEntries: a provider that swaps two head
// offsets of an ED1 split to steer the binary search — the search for 'h'
// then reads 'h' at entry 4, where 'e' belongs, and would answer ValueIDs
// 4..7 — gets a typed decrypt error instead, because each entry's IV names
// the index it was sealed for.
func TestDictSearchRejectsSwappedEntries(t *testing.T) {
	v := newEnv(t, enclave.Config{Identity: testIdentity})
	col := strs("a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l", "m", "n", "o", "p")
	s := v.buildColumn(t, dict.ED1, "t1", "c", col, 8, 0)
	meta := enclave.ColumnMeta{Table: "t1", Column: "c", Kind: dict.ED1, MaxLen: 8}
	q := v.encRange(t, "t1", "c", search.Eq([]byte("h")))
	res, err := v.enclave.DictSearch(meta, s, nil, q)
	if err != nil || len(res.Ranges) != 1 || res.Ranges[0] != (search.VidRange{Lo: 7, Hi: 7}) {
		t.Fatalf("intact split: %+v, %v; want ValueIDs 7..7", res, err)
	}
	// The head, one u32 offset per entry, sits before the u32 tail length
	// and the tail.
	b := s.AppendBinary(nil)
	head := len(b) - 4 - len(s.Tail()) - 4*s.Len()
	e4, e7 := b[head+4*4:head+4*5], b[head+4*7:head+4*8]
	for k := range e4 {
		e4[k], e7[k] = e7[k], e4[k]
	}
	swapped, err := dict.DecodeSplit(b)
	if err != nil {
		t.Fatalf("DecodeSplit: %v", err)
	}
	res, err = v.enclave.DictSearch(meta, swapped, nil, q)
	if !errors.Is(err, search.ErrDecrypt) {
		t.Fatalf("swapped entries 4 and 7: %+v, %v; want search.ErrDecrypt", res, err)
	}
}

// recordingObserver captures the access pattern, as the honest-but-curious
// attacker of paper §3.2 would.
type recordingObserver struct {
	mu      sync.Mutex
	indices []int
}

func (o *recordingObserver) Access(table, column string, index int) {
	o.mu.Lock()
	o.indices = append(o.indices, index)
	o.mu.Unlock()
}

func TestObserverSeesBinarySearchPattern(t *testing.T) {
	obs := &recordingObserver{}
	v := newEnv(t, enclave.Config{Observer: obs, Identity: testIdentity})
	col := paperColumn()
	meta := enclave.ColumnMeta{Table: "t1", Column: "c", Kind: dict.ED1, MaxLen: 16}
	s := v.buildColumn(t, dict.ED1, "t1", "c", col, 16, 0)
	q := v.encRange(t, "t1", "c", search.Eq([]byte("Hans")))
	if _, err := v.enclave.DictSearch(meta, s, nil, q); err != nil {
		t.Fatal(err)
	}
	if len(obs.indices) == 0 {
		t.Fatal("observer saw no accesses")
	}
	// O(log |D|): a 4-entry sorted dictionary needs at most 2*3 probes.
	if len(obs.indices) > 6 {
		t.Errorf("sorted search touched %d entries, want <= 6", len(obs.indices))
	}
}

func TestReencryptValueProducesFreshCiphertext(t *testing.T) {
	v := newEnv(t, enclave.Config{})
	meta := enclave.ColumnMeta{Table: "t1", Column: "c", Kind: dict.ED9, MaxLen: 16}
	key, _ := pae.Derive(v.master, "t1", "c")
	c, _ := pae.NewCipher(key)
	ct, _ := c.Encrypt([]byte("newvalue"))
	out, err := v.enclave.ReencryptValue(meta, ct)
	if err != nil {
		t.Fatalf("ReencryptValue: %v", err)
	}
	if string(out) == string(ct) {
		t.Error("re-encryption returned the identical ciphertext")
	}
	pt, err := c.Decrypt(out)
	if err != nil || string(pt) != "newvalue" {
		t.Errorf("decrypt = %q, %v", pt, err)
	}
}

func TestReencryptValueRejectsOversized(t *testing.T) {
	v := newEnv(t, enclave.Config{})
	meta := enclave.ColumnMeta{Table: "t1", Column: "c", Kind: dict.ED9, MaxLen: 4}
	key, _ := pae.Derive(v.master, "t1", "c")
	c, _ := pae.NewCipher(key)
	ct, _ := c.Encrypt([]byte("waytoolong"))
	if _, err := v.enclave.ReencryptValue(meta, ct); err == nil {
		t.Error("oversized value accepted")
	}
}

func TestMergeColumnsRebuildsValidRows(t *testing.T) {
	v := newEnv(t, enclave.Config{})
	mainCol := [][]byte{[]byte("a"), []byte("b"), []byte("c")}
	deltaCol := [][]byte{[]byte("d"), []byte("b")}
	meta := enclave.ColumnMeta{Table: "t1", Column: "c", Kind: dict.ED5, MaxLen: 8}
	mainSplit := v.buildColumn(t, dict.ED5, "t1", "c", mainCol, 8, 3)
	deltaSplit := v.buildColumn(t, dict.ED9, "t1", "c", deltaCol, 8, 0)

	// Row 1 of main ("b") was deleted; everything else is valid.
	merged, err := v.enclave.MergeColumns(meta, 3,
		enclave.MergeInput{Region: mainSplit, AV: mainSplit.Packed(), Valid: []bool{true, false, true}},
		enclave.MergeInput{Region: deltaSplit, AV: deltaSplit.Packed()},
	)
	if err != nil {
		t.Fatalf("MergeColumns: %v", err)
	}
	key, _ := pae.Derive(v.master, "t1", "c")
	c, _ := pae.NewCipher(key)
	wantRows := [][]byte{[]byte("a"), []byte("c"), []byte("d"), []byte("b")}
	if err := merged.VerifyCorrectness(wantRows, c.Decrypt); err != nil {
		t.Errorf("merged split incorrect: %v", err)
	}
	if merged.Kind != dict.ED5 {
		t.Errorf("merged kind = %v, want ED5", merged.Kind)
	}
}

func TestMergeColumnsEmptyDelta(t *testing.T) {
	v := newEnv(t, enclave.Config{})
	mainCol := [][]byte{[]byte("x"), []byte("y")}
	meta := enclave.ColumnMeta{Table: "t1", Column: "c", Kind: dict.ED1, MaxLen: 8}
	mainSplit := v.buildColumn(t, dict.ED1, "t1", "c", mainCol, 8, 0)
	merged, err := v.enclave.MergeColumns(meta, 0,
		enclave.MergeInput{Region: mainSplit, AV: mainSplit.Packed()},
		enclave.MergeInput{},
	)
	if err != nil {
		t.Fatalf("MergeColumns: %v", err)
	}
	if merged.Rows() != 2 {
		t.Errorf("merged rows = %d, want 2", merged.Rows())
	}
}

func TestProvisionedReportsState(t *testing.T) {
	p, _ := enclave.NewPlatform()
	e, err := p.Launch(enclave.Config{Identity: testIdentity})
	if err != nil {
		t.Fatal(err)
	}
	if e.Provisioned() {
		t.Error("fresh enclave claims provisioned")
	}
	v := newEnv(t, enclave.Config{})
	if !v.enclave.Provisioned() {
		t.Error("provisioned enclave claims unprovisioned")
	}
}

func TestMeasurementStable(t *testing.T) {
	if enclave.Measure("a") == enclave.Measure("b") {
		t.Error("different identities share a measurement")
	}
	if enclave.Measure("a") != enclave.Measure("a") {
		t.Error("measurement not deterministic")
	}
}

// TestConcurrentBuildECalls drives BuildColumn from many goroutines at once:
// the engine's per-table locking allows build and merge ECALLs on different
// tables to overlap, so the enclave's shuffle/rotation randomness must not
// be shared unsynchronized. Run with -race; the splits must also each be
// internally consistent.
func TestConcurrentBuildECalls(t *testing.T) {
	// Single-core hosts serialize goroutines tightly enough to mask the
	// race this guards against; force real thread-level interleaving.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	v := newEnv(t, enclave.Config{})
	var col [][]byte
	for i := 0; i < 200; i++ {
		col = append(col, []byte{byte('a' + i%7), byte('a' + i%13)})
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			kind := []dict.Kind{dict.ED2, dict.ED5, dict.ED8}[g%3]
			for i := 0; i < 5; i++ {
				meta := enclave.ColumnMeta{
					Table:  "tcb",
					Column: []string{"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"}[g],
					Kind:   kind,
					MaxLen: 4,
				}
				split, err := v.enclave.BuildColumn(meta, 3, col)
				if err != nil {
					errs <- err
					return
				}
				if split.Rows() != len(col) {
					errs <- errors.New("concurrent build: row count mismatch")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
