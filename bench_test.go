// Benchmarks regenerating the paper's tables and figures as testing.B
// targets, one per experiment (run `go test -bench=. -benchmem`). The
// encdbdb-bench command prints the corresponding paper-style tables; these
// benchmarks expose the same measurement points to Go tooling.
//
// Mapping (README.md, Benchmarks, lists the matching experiments):
//
//	Table 1  -> BenchmarkTable1* (EncDBDB vs PlainDBDB, the 8.9% figure)
//	Table 3  -> BenchmarkTable3* (dictionary construction per repetition)
//	Table 4  -> BenchmarkTable4* (dictionary search per order option)
//	Table 6  -> BenchmarkTable6* (storage construction per variant)
//	Fig. 6   -> BenchmarkFig6FrequencyAttack
//	Fig. 7   -> BenchmarkFig7ResultCount
//	Fig. 8a  -> BenchmarkFig8a* (ED1-ED3 + baselines)
//	Fig. 8b  -> BenchmarkFig8b* (ED4-ED6)
//	Fig. 8c  -> BenchmarkFig8c* (ED7-ED9)
//	Ablation -> BenchmarkAblation*
package encdbdb_test

import (
	"context"
	"math/rand"
	"testing"

	"github.com/encdbdb/encdbdb/internal/baseline"
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/enclave"
	"github.com/encdbdb/encdbdb/internal/engine"
	"github.com/encdbdb/encdbdb/internal/leakage"
	"github.com/encdbdb/encdbdb/internal/pae"
	"github.com/encdbdb/encdbdb/internal/search"
	"github.com/encdbdb/encdbdb/internal/workload"
)

// benchRows keeps setup time reasonable while exceeding dictionary sizes
// where asymptotics are visible. Scale up via the encdbdb-bench command.
const (
	benchRows  = 20_000
	benchBSMax = 10
)

// benchSystem is a provisioned single-table deployment plus prepared
// encrypted query filters.
type benchSystem struct {
	db      *engine.DB
	encl    *enclave.Enclave
	col     *workload.Column
	filters []engine.Filter
}

// newBenchSystem loads a C2-profile column under the given kind and
// prepares nq encrypted RS-range filters.
func newBenchSystem(b *testing.B, kind dict.Kind, plain bool, rs, nq int) *benchSystem {
	b.Helper()
	plat, err := enclave.NewPlatform()
	if err != nil {
		b.Fatal(err)
	}
	encl, err := plat.Launch(enclave.Config{Identity: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	master := pae.MustGen()
	sealed, err := enclave.SealKey(encl.Quote(nil), master)
	if err != nil {
		b.Fatal(err)
	}
	if err := encl.Provision(sealed); err != nil {
		b.Fatal(err)
	}
	db := engine.New(encl)

	col := workload.Generate(workload.C2().Scaled(benchRows), 1)
	def := engine.ColumnDef{Name: "c", Kind: kind, MaxLen: col.Profile.ValueLen, Plain: plain}
	if kind.Repetition() == dict.RepSmoothing {
		def.BSMax = benchBSMax
	}
	if err := db.CreateTable(engine.Schema{Table: "b", Columns: []engine.ColumnDef{def}}); err != nil {
		b.Fatal(err)
	}
	key, err := pae.Derive(master, "b", "c")
	if err != nil {
		b.Fatal(err)
	}
	cipher, err := pae.NewCipher(key)
	if err != nil {
		b.Fatal(err)
	}
	params := dict.Params{
		Kind: kind, MaxLen: def.MaxLen, BSMax: def.BSMax, Plain: plain,
		Cipher: cipher, Rand: rand.New(rand.NewSource(2)),
	}
	split, err := dict.Build(col.Values, params)
	if err != nil {
		b.Fatal(err)
	}
	if err := db.ImportColumn("b", "c", split); err != nil {
		b.Fatal(err)
	}

	gen, err := workload.NewQueryGen(col, rs, 3)
	if err != nil {
		b.Fatal(err)
	}
	filters := make([]engine.Filter, nq)
	for i := range filters {
		q := gen.Next()
		er := enclave.EncRange{StartIncl: true, EndIncl: true}
		if plain {
			er.Start, er.End = q.Start, q.End
		} else {
			if er.Start, err = cipher.Encrypt(q.Start); err != nil {
				b.Fatal(err)
			}
			if er.End, err = cipher.Encrypt(q.End); err != nil {
				b.Fatal(err)
			}
		}
		filters[i] = engine.SingleRange("c", er)
	}
	return &benchSystem{db: db, encl: encl, col: col, filters: filters}
}

// runQueries is the shared measurement loop: one Select per iteration.
func (s *benchSystem) runQueries(b *testing.B) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := s.filters[i%len(s.filters)]
		if _, err := s.db.Select(context.Background(), engine.Query{Table: "b", Filters: []engine.Filter{f}}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchQuery measures end-to-end encrypted range queries for one kind.
func benchQuery(b *testing.B, kind dict.Kind, plain bool, rs int) {
	b.Helper()
	s := newBenchSystem(b, kind, plain, rs, 64)
	s.runQueries(b)
}

// --- Table 1: encryption + enclave overhead (EncDBDB vs PlainDBDB). ---

func BenchmarkTable1EncDBDB_ED1(b *testing.B)   { benchQuery(b, dict.ED1, false, 2) }
func BenchmarkTable1PlainDBDB_ED1(b *testing.B) { benchQuery(b, dict.ED1, true, 2) }

// --- Table 3: dictionary construction per repetition option. ---

func benchBuild(b *testing.B, kind dict.Kind) {
	b.Helper()
	col := workload.Generate(workload.C2().Scaled(benchRows), 1)
	cipher, err := pae.NewCipher(pae.MustGen())
	if err != nil {
		b.Fatal(err)
	}
	p := dict.Params{
		Kind: kind, MaxLen: col.Profile.ValueLen, BSMax: benchBSMax,
		Cipher: cipher, Rand: rand.New(rand.NewSource(4)),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dict.Build(col.Values, p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3BuildRevealing_ED1(b *testing.B) { benchBuild(b, dict.ED1) }
func BenchmarkTable3BuildSmoothing_ED4(b *testing.B) { benchBuild(b, dict.ED4) }
func BenchmarkTable3BuildHiding_ED7(b *testing.B)    { benchBuild(b, dict.ED7) }

// --- Table 4: dictionary search per order option (log vs linear). ---

func BenchmarkTable4SortedSearch_ED1(b *testing.B)   { benchQuery(b, dict.ED1, false, 2) }
func BenchmarkTable4RotatedSearch_ED2(b *testing.B)  { benchQuery(b, dict.ED2, false, 2) }
func BenchmarkTable4UnsortedSearch_ED3(b *testing.B) { benchQuery(b, dict.ED3, false, 2) }

// --- Table 6: storage construction per variant. ---

func BenchmarkTable6Storage(b *testing.B) {
	col := workload.Generate(workload.C2().Scaled(benchRows), 1)
	cipher, err := pae.NewCipher(pae.MustGen())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("PlaintextFile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = baseline.PlaintextFileSize(col.Values)
		}
	})
	b.Run("EncryptedFile", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = baseline.EncryptedFileSize(col.Values)
		}
	})
	b.Run("MonetDB", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = baseline.NewMonetDBSim(col.Values).SizeBytes()
		}
	})
	for _, tc := range []struct {
		name  string
		kind  dict.Kind
		bsmax int
	}{
		{name: "ED1", kind: dict.ED1},
		{name: "ED4_bsmax10", kind: dict.ED4, bsmax: 10},
		{name: "ED4_bsmax2", kind: dict.ED4, bsmax: 2},
		{name: "ED7", kind: dict.ED7},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p := dict.Params{
				Kind: tc.kind, MaxLen: col.Profile.ValueLen, BSMax: tc.bsmax,
				Cipher: cipher, Rand: rand.New(rand.NewSource(5)),
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s, err := dict.Build(col.Values, p)
				if err != nil {
					b.Fatal(err)
				}
				_ = s.SizeBytes()
			}
		})
	}
}

// --- Figure 6: frequency-analysis attack. ---

func BenchmarkFig6FrequencyAttack(b *testing.B) {
	col := workload.Generate(workload.Profile{
		Name: "skewed", Rows: benchRows, Unique: 64, ValueLen: 10, Zipf: 1.4,
	}, 1)
	split, err := dict.Build(col.Values, dict.Params{
		Kind: dict.ED3, MaxLen: 10, Plain: true, Rand: rand.New(rand.NewSource(6)),
	})
	if err != nil {
		b.Fatal(err)
	}
	aux := leakage.BuildAuxiliary(col.Values)
	identity := func(v []byte) ([]byte, error) { return v, nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := leakage.FrequencyAttack(split, identity, aux); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7: result count of random range queries. ---

func BenchmarkFig7ResultCount(b *testing.B) {
	col := workload.Generate(workload.C2().Scaled(benchRows), 1)
	gen, err := workload.NewQueryGen(col, 100, 7)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := gen.Next()
		n := 0
		for _, v := range col.Values {
			if q.Contains(v) {
				n++
			}
		}
		_ = n
	}
}

// --- Figure 8a: ED1-ED3 latencies plus the two baselines. ---

func BenchmarkFig8aMonetDB(b *testing.B) {
	col := workload.Generate(workload.C2().Scaled(benchRows), 1)
	m := baseline.NewMonetDBSim(col.Values)
	gen, err := workload.NewQueryGen(col, 2, 8)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]search.Range, 64)
	for i := range queries {
		queries[i] = gen.Next()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rids := m.RangeSearch(queries[i%len(queries)])
		for _, r := range rids {
			_ = m.Get(int(r))
		}
	}
}

func BenchmarkFig8aPlainDBDB_ED1(b *testing.B) { benchQuery(b, dict.ED1, true, 2) }
func BenchmarkFig8aEncDBDB_ED1(b *testing.B)   { benchQuery(b, dict.ED1, false, 2) }
func BenchmarkFig8aEncDBDB_ED2(b *testing.B)   { benchQuery(b, dict.ED2, false, 2) }
func BenchmarkFig8aEncDBDB_ED3(b *testing.B)   { benchQuery(b, dict.ED3, false, 2) }

// RS=100 points show the tuple-reconstruction effect.
func BenchmarkFig8aEncDBDB_ED1_RS100(b *testing.B) { benchQuery(b, dict.ED1, false, 100) }

// --- Figure 8b: ED4-ED6 latencies (bsmax = 10 as in §6.3). ---

func BenchmarkFig8bEncDBDB_ED4(b *testing.B) { benchQuery(b, dict.ED4, false, 2) }
func BenchmarkFig8bEncDBDB_ED5(b *testing.B) { benchQuery(b, dict.ED5, false, 2) }
func BenchmarkFig8bEncDBDB_ED6(b *testing.B) { benchQuery(b, dict.ED6, false, 2) }

// --- Figure 8c: ED7-ED9 latencies. ---

func BenchmarkFig8cEncDBDB_ED7(b *testing.B) { benchQuery(b, dict.ED7, false, 2) }
func BenchmarkFig8cEncDBDB_ED8(b *testing.B) { benchQuery(b, dict.ED8, false, 2) }
func BenchmarkFig8cEncDBDB_ED9(b *testing.B) { benchQuery(b, dict.ED9, false, 2) }

// --- Ablation A1: attribute vector strategies for unsorted dictionaries. ---

func benchAVMode(b *testing.B, mode baseline.AVMode) {
	b.Helper()
	col := workload.Generate(workload.C2().Scaled(benchRows), 1)
	split, err := dict.Build(col.Values, dict.Params{
		Kind: dict.ED9, MaxLen: col.Profile.ValueLen, Plain: true,
		Rand: rand.New(rand.NewSource(9)),
	})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewQueryGen(col, 2, 10)
	if err != nil {
		b.Fatal(err)
	}
	vidsPerQuery := make([][]uint32, 16)
	for i := range vidsPerQuery {
		vids, err := search.UnsortedDict(split, search.PlainDecryptor{}, gen.Next())
		if err != nil {
			b.Fatal(err)
		}
		vidsPerQuery[i] = vids
	}
	codes := split.AVCodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.AttrVectList(codes, vidsPerQuery[i%len(vidsPerQuery)], split.Len(), mode, 1)
	}
}

func BenchmarkAblationAVNestedLoop(b *testing.B)  { benchAVMode(b, baseline.AVNestedLoop) }
func BenchmarkAblationAVSortedProbe(b *testing.B) { benchAVMode(b, baseline.AVSortedProbe) }
func BenchmarkAblationAVBitset(b *testing.B)      { benchAVMode(b, baseline.AVBitset) }

// --- Ablation A3: enclave boundary cost at search granularity. ---

func BenchmarkAblationEnclaveDictSearch(b *testing.B) {
	s := newBenchSystem(b, dict.ED1, false, 2, 64)
	s.encl.ResetStats()
	s.runQueries(b)
	b.ReportMetric(float64(s.encl.Stats().Decryptions)/float64(b.N), "decrypts/op")
}
