package enclave_test

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/search"
)

// sliceRegion is a delta store's dictionary as the engine holds it: one
// re-encrypted entry per inserted row, in insertion order.
type sliceRegion [][]byte

func (r sliceRegion) Len() int                             { return len(r) }
func (r sliceRegion) AppendEntry(dst []byte, i int) []byte { return append(dst, r[i]...) }

// tamperedRegion flips the last byte of entry bad as it is loaded, so a
// search fails authentication there, partway through its scan.
type tamperedRegion struct {
	search.Region
	bad int
}

func (r tamperedRegion) AppendEntry(dst []byte, i int) []byte {
	b := r.Region.AppendEntry(dst, i)
	if i == r.bad {
		b[len(b)-1] ^= 1
	}
	return b
}

// loadedBytes is what an ECALL counts as read for entry i of r.
func loadedBytes(r search.Region, i int) uint64 {
	return uint64(len(r.AppendEntry(nil, i)) - enclave.DerivedBytes(r))
}

// sequenceObserver records every access per column, in order.
type sequenceObserver struct {
	mu   sync.Mutex
	seen map[string][]int
}

func (o *sequenceObserver) Access(table, column string, index int) {
	o.mu.Lock()
	o.seen[column] = append(o.seen[column], index)
	o.mu.Unlock()
}

// statsTarget is one dictionary the concurrency test searches, with the
// exact work one search of it costs.
type statsTarget struct {
	meta     enclave.ColumnMeta
	region   search.Region
	rot      []byte
	values   [][]byte
	unsorted bool
	loads    uint64 // entries loaded per search
	decrypts uint64 // PAE decryptions per search
}

// TestStatsExactUnderConcurrency runs 4 goroutines x 25 dictionary searches
// against one padded enclave — ED3, an ED9 search of a delta region, ED1
// and ED5 — plus one ED3 search that fails on a tampered entry partway
// through. Once all have returned, Stats must equal the exact work: one
// ECALL per search; |D| loads and |D|+2 decryptions per unsorted search;
// the padding target of loads per sorted or rotated one, each decrypted,
// plus the bounds (and the rotation header); the failed search's loads and
// decryptions up to and including the tampered entry; and the bytes of
// every entry the observer saw loaded. The observer must see each unsorted
// search load every index exactly once, in order.
func TestStatsExactUnderConcurrency(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	obs := &sequenceObserver{seen: map[string][]int{}}
	v := newEnv(t, enclave.Config{Identity: testIdentity, PadProbes: true, Observer: obs})
	rng := rand.New(rand.NewSource(28))
	col := make([][]byte, 600)
	for i := range col {
		col[i] = []byte(fmt.Sprintf("v%04d", rng.Intn(300)))
	}
	const goroutines, searches, table = 4, 25, "ts"
	padded := func(n int) uint64 { return uint64(2*bits.Len(uint(n)) + 8) }

	targets := make([][]statsTarget, goroutines)
	for g := range targets {
		for _, kind := range []dict.Kind{dict.ED3, dict.ED1, dict.ED5} {
			name := fmt.Sprintf("%v_%d", kind, g)
			s := v.buildColumn(t, kind, table, name, col, 8, 20)
			tg := statsTarget{
				meta:   enclave.ColumnMeta{Table: table, Column: name, Kind: kind, MaxLen: 8},
				region: s, rot: s.EncRndOffset, values: col,
			}
			switch kind.Order() {
			case dict.OrderUnsorted:
				tg.unsorted, tg.loads, tg.decrypts = true, uint64(s.Len()), uint64(s.Len())+2
			case dict.OrderSorted:
				tg.loads, tg.decrypts = padded(s.Len()), padded(s.Len())+2
			default:
				tg.loads, tg.decrypts = padded(s.Len()), padded(s.Len())+3
			}
			targets[g] = append(targets[g], tg)
		}
		// A delta store of an ED5 column: rows re-encrypted on insert,
		// searched with ED9 semantics.
		name := fmt.Sprintf("delta_%d", g)
		meta := enclave.ColumnMeta{Table: table, Column: name, Kind: dict.ED5, MaxLen: 8}
		c := v.columnCipher(t, table, name)
		var delta sliceRegion
		for _, val := range col[:150] {
			ct, err := c.Encrypt(val)
			if err != nil {
				t.Fatal(err)
			}
			re, err := v.enclave.ReencryptValue(meta, ct)
			if err != nil {
				t.Fatal(err)
			}
			delta = append(delta, re)
		}
		meta.Kind = dict.ED9
		targets[g] = append(targets[g], statsTarget{
			meta: meta, region: delta, values: col[:150], unsorted: true,
			loads: uint64(len(delta)), decrypts: uint64(len(delta)) + 2,
		})
	}
	bad := v.buildColumn(t, dict.ED3, table, "bad", col, 8, 0)
	badMeta := enclave.ColumnMeta{Table: table, Column: "bad", Kind: dict.ED3, MaxLen: 8}
	badAt := bad.Len() / 3
	badQ := v.encRange(t, table, "bad", search.Eq(col[0]))
	queries := make([][]enclave.EncRange, goroutines)
	for g := range queries {
		for i := 0; i < searches; i++ {
			tg := targets[g][i%len(targets[g])]
			lo, hi := tg.values[rng.Intn(len(tg.values))], tg.values[rng.Intn(len(tg.values))]
			if string(lo) > string(hi) {
				lo, hi = hi, lo
			}
			queries[g] = append(queries[g], v.encRange(t, table, tg.meta.Column, search.Closed(lo, hi)))
		}
	}

	v.enclave.ResetStats()
	want := enclave.Stats{ECalls: goroutines*searches + 1, Loads: uint64(badAt) + 1, Decryptions: uint64(badAt) + 3}
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*searches+1)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, q := range queries[g] {
				tg := targets[g][i%len(targets[g])]
				if _, err := v.enclave.DictSearch(tg.meta, tg.region, tg.rot, q); err != nil {
					errs <- fmt.Errorf("%s: %w", tg.meta.Column, err)
				}
				mu.Lock()
				want.Loads += tg.loads
				want.Decryptions += tg.decrypts
				mu.Unlock()
				if g == 0 && i == searches/2 {
					_, err := v.enclave.DictSearch(badMeta, tamperedRegion{bad, badAt}, nil, badQ)
					if !errors.Is(err, search.ErrDecrypt) {
						errs <- fmt.Errorf("tampered entry %d: err = %v, want search.ErrDecrypt", badAt, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	regions := map[string]search.Region{"bad": tamperedRegion{bad, badAt}}
	for g := range targets {
		for _, tg := range targets[g] {
			regions[tg.meta.Column] = tg.region
		}
	}
	var seen uint64
	for column, idxs := range obs.seen {
		seen += uint64(len(idxs))
		for _, i := range idxs {
			want.BytesLoaded += loadedBytes(regions[column], i)
		}
	}
	if seen != want.Loads {
		t.Errorf("observer saw %d loads, want %d", seen, want.Loads)
	}
	if got := v.enclave.Stats(); got != want {
		t.Errorf("Stats = %+v\nwant    %+v", got, want)
	}

	// Every unsorted search loads each index once, in order; the failed one
	// stops at the tampered entry.
	wantSeq := func(n, times int) []int {
		var seq []int
		for ; times > 0; times-- {
			for i := 0; i < n; i++ {
				seq = append(seq, i)
			}
		}
		return seq
	}
	for g := range targets {
		for k, tg := range targets[g] {
			if !tg.unsorted {
				continue
			}
			times := (searches - k + len(targets[g]) - 1) / len(targets[g])
			if got := obs.seen[tg.meta.Column]; !slices.Equal(got, wantSeq(tg.region.Len(), times)) {
				t.Errorf("%s: observer saw %d accesses out of order or repeated, want indices 0..%d x %d",
					tg.meta.Column, len(got), tg.region.Len()-1, times)
			}
		}
	}
	if got := obs.seen["bad"]; !slices.Equal(got, wantSeq(badAt+1, 1)) {
		t.Errorf("tampered search: observer saw %v, want indices 0..%d", got, badAt)
	}
}

// BenchmarkUnsortedDictSearchParallel runs ED3 searches over one
// 13,361-entry dictionary (the scan-heavy benchmark's distinct count) from
// GOMAXPROCS goroutines at once: the shape in which a counter every ECALL
// updates per entry would contend. ns/entry is wall time per loaded entry.
func BenchmarkUnsortedDictSearchParallel(b *testing.B) {
	const n = 13361
	v := newEnv(b, enclave.Config{})
	col := make([][]byte, n)
	for i := range col {
		col[i] = []byte(fmt.Sprintf("v%06d", i))
	}
	s := v.buildColumn(b, dict.ED3, "t1", "c", col, 8, 0)
	meta := enclave.ColumnMeta{Table: "t1", Column: "c", Kind: dict.ED3, MaxLen: 8}
	q := v.encRange(b, "t1", "c", search.Closed(col[100], col[3000]))
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := v.enclave.DictSearch(meta, s, nil, q); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/entry")
}
