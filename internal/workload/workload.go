// Package workload generates synthetic columns matching the statistical
// profile of the real-world SAP business-warehouse columns used in the
// paper's evaluation (§6.2-6.3), plus the random range queries driving
// Figures 7 and 8.
//
// The paper's snapshot is proprietary, so the generator reproduces the
// published characteristics instead: C1 holds 10.9 million
// 12-character values of which 6.96 million are unique (almost no
// repetition), C2 holds 10.9 million 10-character values with only 13,361
// unique values (heavy repetition, moderately skewed). Experiments sample
// these profiles down exactly like the paper samples its originals ("we
// sample datasets from 1 to 10 million records using the distribution and
// values of the original columns").
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/encdbdb/encdbdb/internal/search"
)

// Profile describes the statistical shape of a column.
type Profile struct {
	// Name labels the profile in reports ("C1", "C2").
	Name string
	// Rows is the number of values.
	Rows int
	// Unique is the size of the value vocabulary. The effective unique
	// count of a generated column can be lower for heavily skewed
	// profiles (rare values may not be drawn), exactly as in sampling.
	Unique int
	// ValueLen is the byte length of every value.
	ValueLen int
	// Zipf > 0 draws values from a Zipf distribution with this s
	// parameter, modelling the skew of warehouse columns; 0 draws
	// uniformly.
	Zipf float64
}

// C1 is the high-cardinality evaluation column (6.96 M unique of 10.9 M).
func C1() Profile {
	return Profile{Name: "C1", Rows: 10_900_000, Unique: 6_960_000, ValueLen: 12}
}

// C2 is the low-cardinality evaluation column (13,361 unique of 10.9 M,
// skewed occurrence counts as §6.3's result sizes indicate).
func C2() Profile {
	return Profile{Name: "C2", Rows: 10_900_000, Unique: 13_361, ValueLen: 10, Zipf: 1.1}
}

// Scaled returns the profile sampled down to n rows. The vocabulary is kept
// (capped at n), matching the paper's sampling methodology: result counts
// then grow with the dataset size as in Figure 7.
func (p Profile) Scaled(n int) Profile {
	out := p
	out.Rows = n
	if out.Unique > n {
		out.Unique = n
	}
	out.Name = fmt.Sprintf("%s/%d", p.Name, n)
	return out
}

// Column is a generated column plus the sorted unique values needed to form
// paper-style range queries.
type Column struct {
	Profile Profile
	Values  [][]byte
	// SortedUnique are the distinct values that actually occur, sorted.
	SortedUnique [][]byte
}

// Generate deterministically builds a column for the profile.
func Generate(p Profile, seed int64) *Column {
	rng := rand.New(rand.NewSource(seed))
	vocab := vocabulary(rng, p.Unique, p.ValueLen)
	values := make([][]byte, p.Rows)
	if p.Zipf > 0 && p.Unique > 1 {
		z := rand.NewZipf(rng, p.Zipf, 1, uint64(p.Unique-1))
		for i := range values {
			values[i] = vocab[z.Uint64()]
		}
	} else {
		for i := range values {
			values[i] = vocab[rng.Intn(p.Unique)]
		}
	}
	return &Column{Profile: p, Values: values, SortedUnique: sortedUnique(values)}
}

// vocabulary builds n distinct NUL-free values of length valueLen. The
// lexicographic position of a value is decorrelated from its frequency rank
// by shuffling, as in real identifier columns.
func vocabulary(rng *rand.Rand, n, valueLen int) [][]byte {
	if valueLen < 1 {
		valueLen = 1
	}
	vocab := make([][]byte, n)
	for i := range vocab {
		v := make([]byte, valueLen)
		// A distinct prefix encodes i in base 26; the rest is random
		// letters. This guarantees distinctness without a dedup pass.
		x := i
		for j := 0; j < valueLen; j++ {
			if x > 0 || j == 0 {
				v[j] = byte('a' + x%26)
				x /= 26
			} else {
				v[j] = byte('a' + rng.Intn(26))
			}
		}
		vocab[i] = v
	}
	rng.Shuffle(n, func(a, b int) { vocab[a], vocab[b] = vocab[b], vocab[a] })
	return vocab
}

// sortedUnique extracts the sorted distinct values of a column.
func sortedUnique(values [][]byte) [][]byte {
	seen := make(map[string]struct{}, len(values))
	var out [][]byte
	for _, v := range values {
		if _, ok := seen[string(v)]; ok {
			continue
		}
		seen[string(v)] = struct{}{}
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return string(out[a]) < string(out[b]) })
	return out
}

// QueryGen produces the paper's random range queries: a range size RS
// selects RS consecutive values from the sorted unique values, i.e.
// R = [v_i, v_{i+RS-1}] for uniform random i (§6.3).
type QueryGen struct {
	unique [][]byte
	rs     int
	rng    *rand.Rand
}

// NewQueryGen creates a query generator with range size rs over the
// column's unique values.
func NewQueryGen(col *Column, rs int, seed int64) (*QueryGen, error) {
	if rs < 1 {
		return nil, fmt.Errorf("workload: range size %d < 1", rs)
	}
	if len(col.SortedUnique) < rs {
		return nil, fmt.Errorf("workload: range size %d exceeds %d unique values", rs, len(col.SortedUnique))
	}
	return &QueryGen{unique: col.SortedUnique, rs: rs, rng: rand.New(rand.NewSource(seed))}, nil
}

// Next returns the next random range query.
func (g *QueryGen) Next() search.Range {
	i := g.rng.Intn(len(g.unique) - g.rs + 1)
	return search.Closed(g.unique[i], g.unique[i+g.rs-1])
}

// Stats summarizes per-query measurements with the paper's 95% confidence
// interval presentation.
type Stats struct {
	N    int
	Mean float64
	CI95 float64
}

// Summarize computes mean and 95% confidence interval half-width.
func Summarize(samples []float64) Stats {
	n := len(samples)
	if n == 0 {
		return Stats{}
	}
	var sum float64
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(n)
	if n == 1 {
		return Stats{N: 1, Mean: mean}
	}
	var ss float64
	for _, s := range samples {
		d := s - mean
		ss += d * d
	}
	variance := ss / float64(n-1)
	// 1.96 approximates the normal quantile; fine for n = 500 queries.
	ci := 1.96 * math.Sqrt(variance/float64(n))
	return Stats{N: n, Mean: mean, CI95: ci}
}

// Percentile returns the q-quantile (0 < q <= 1) of samples by nearest
// rank, e.g. Percentile(lat, 0.99) for a p99 tail latency.
func Percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}
