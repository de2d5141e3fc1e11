// Package leakage implements the empirical side of the paper's security
// evaluation (§6.1, Tables 3-5, Figure 6): what an honest-but-curious
// attacker with full memory access learns from an encrypted dictionary and
// its attribute vector.
//
// Two leakage dimensions are measured:
//
//   - Frequency leakage: the attacker counts how often each ValueID occurs
//     in the (plaintext-visible) attribute vector. Frequency revealing
//     exposes the exact histogram, smoothing bounds every count by bsmax,
//     hiding flattens all counts to one (Table 3).
//   - Order leakage: the attacker knows the storage position of every
//     ciphertext in the dictionary. Sorted dictionaries expose the full
//     plaintext order, rotated ones the modular order, unsorted ones
//     nothing (Table 4).
//
// A frequency-analysis attack in the style of Naveed et al. (the paper's
// [66]) quantifies the practical impact: the attacker matches frequency
// ranks of ValueIDs against an auxiliary plaintext distribution. The
// relative recovery rates across ED1-ED9 reproduce the partial security
// order of Figure 6.
package leakage

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/encdbdb/encdbdb/internal/dict"
)

// Report is the attacker's-eye view of one split column.
type Report struct {
	Kind    dict.Kind
	DictLen int
	Rows    int

	// Frequency leakage metrics: the ValueID histogram of the attribute
	// vector, which the attacker sees directly.
	MaxVidFrequency int
	MinVidFrequency int

	// AdjacentOrderScore is the fraction of adjacent dictionary entry
	// pairs whose plaintexts are in non-decreasing order (wrapping pairs
	// excluded). Sorted and rotated dictionaries score ~1.0, shuffled
	// ones ~0.5. It reflects what an attacker exploiting relative
	// positions can rely on.
	AdjacentOrderScore float64

	// RankCorrelation is the Spearman correlation between a dictionary
	// entry's position and its plaintext rank. Sorted dictionaries score
	// ~1.0; rotated ones vary with the secret offset; unsorted ones ~0.
	RankCorrelation float64
}

// Analyze inspects a split with the help of a decryption oracle. The oracle
// stands in for ground truth available to the evaluator (not the attacker):
// the attacker-visible inputs are only positions and the attribute vector;
// plaintexts are used solely to score what those observations reveal.
func Analyze(s *dict.Split, decrypt func([]byte) ([]byte, error)) (*Report, error) {
	n := s.Len()
	r := &Report{Kind: s.Kind, DictLen: n, Rows: s.Rows()}
	hist := VidHistogram(s.AVCodes(), n)
	for _, c := range hist {
		if c > r.MaxVidFrequency {
			r.MaxVidFrequency = c
		}
		if r.MinVidFrequency == 0 || (c > 0 && c < r.MinVidFrequency) {
			r.MinVidFrequency = c
		}
	}
	plain := make([][]byte, n)
	for i := 0; i < n; i++ {
		v, err := decrypt(s.AppendEntry(nil, i))
		if err != nil {
			return nil, fmt.Errorf("leakage: decrypt entry %d: %w", i, err)
		}
		plain[i] = v
	}
	r.AdjacentOrderScore = adjacentOrderScore(plain)
	r.RankCorrelation = rankCorrelation(plain)
	return r, nil
}

// VidHistogram counts occurrences of each ValueID in the attribute vector —
// exactly the view of the paper's attacker.
func VidHistogram(av []uint32, dictLen int) []int {
	hist := make([]int, dictLen)
	for _, vid := range av {
		if int(vid) < dictLen {
			hist[vid]++
		}
	}
	return hist
}

// adjacentOrderScore computes the fraction of adjacent entry pairs in
// plaintext order.
func adjacentOrderScore(plain [][]byte) float64 {
	if len(plain) < 2 {
		return 1
	}
	ordered := 0
	for i := 1; i < len(plain); i++ {
		if string(plain[i-1]) <= string(plain[i]) {
			ordered++
		}
	}
	return float64(ordered) / float64(len(plain)-1)
}

// rankCorrelation computes the Spearman rank correlation between dictionary
// position and plaintext rank (ties averaged).
func rankCorrelation(plain [][]byte) float64 {
	n := len(plain)
	if n < 2 {
		return 1
	}
	ranks := plaintextRanks(plain)
	// Spearman rho on (position i, rank[i]) with position ranks 0..n-1.
	meanPos := float64(n-1) / 2
	var meanRank float64
	for _, r := range ranks {
		meanRank += r
	}
	meanRank /= float64(n)
	var cov, varPos, varRank float64
	for i, r := range ranks {
		dp := float64(i) - meanPos
		dr := r - meanRank
		cov += dp * dr
		varPos += dp * dp
		varRank += dr * dr
	}
	if varPos == 0 || varRank == 0 {
		return 0
	}
	return cov / (math.Sqrt(varPos) * math.Sqrt(varRank))
}

// plaintextRanks assigns each entry its rank in plaintext order, averaging
// ties.
func plaintextRanks(plain [][]byte) []float64 {
	n := len(plain)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return string(plain[idx[a]]) < string(plain[idx[b]])
	})
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && string(plain[idx[j+1]]) == string(plain[idx[i]]) {
			j++
		}
		avg := float64(i+j) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}

// AuxiliaryDistribution is the attacker's background knowledge: the true
// plaintext value frequencies (e.g. public census data in the paper's
// attack literature).
type AuxiliaryDistribution map[string]int

// BuildAuxiliary derives the exact distribution from the original column,
// giving the attacker the strongest possible auxiliary knowledge.
func BuildAuxiliary(col [][]byte) AuxiliaryDistribution {
	aux := make(AuxiliaryDistribution)
	for _, v := range col {
		aux[string(v)]++
	}
	return aux
}

// FrequencyAttack runs a frequency-analysis attack: the attacker ranks
// ValueIDs by their attribute vector frequency, ranks auxiliary values by
// their known frequency, matches them rank-for-rank, and guesses every
// row's plaintext. The return value is the fraction of rows recovered
// correctly (scored with the decryption oracle).
//
// Against frequency-revealing dictionaries with skewed data this recovers
// most rows; smoothing bounds it; hiding pushes it towards random guessing.
func FrequencyAttack(s *dict.Split, decrypt func([]byte) ([]byte, error), aux AuxiliaryDistribution) (float64, error) {
	n := s.Len()
	if n == 0 || s.Rows() == 0 {
		return 0, nil
	}
	hist := VidHistogram(s.AVCodes(), n)

	// Attacker side: ValueIDs sorted by descending observed frequency.
	// Ties are shuffled first: a frequency-analysis attacker has no basis
	// to order equal-frequency ValueIDs, and keeping them in storage
	// order would smuggle the *order* leakage of sorted dictionaries into
	// this frequency-only attack (order leakage is measured separately by
	// Analyze).
	vids := make([]int, n)
	for i := range vids {
		vids[i] = i
	}
	tieRng := rand.New(rand.NewSource(int64(n)*2654435761 + int64(s.Rows())))
	tieRng.Shuffle(n, func(a, b int) { vids[a], vids[b] = vids[b], vids[a] })
	sort.SliceStable(vids, func(a, b int) bool { return hist[vids[a]] > hist[vids[b]] })

	// Attacker side: auxiliary values sorted by descending frequency. A
	// value occurring k times in the auxiliary data explains up to
	// ceil(k) dictionary slots for revealing, more under smoothing; the
	// attacker assigns values to ValueID ranks proportionally to their
	// total mass.
	type valFreq struct {
		val  string
		freq int
	}
	vals := make([]valFreq, 0, len(aux))
	for v, f := range aux {
		vals = append(vals, valFreq{val: v, freq: f})
	}
	sort.SliceStable(vals, func(a, b int) bool {
		if vals[a].freq != vals[b].freq {
			return vals[a].freq > vals[b].freq
		}
		return vals[a].val < vals[b].val
	})

	// Assign auxiliary values to ValueIDs greedily: each auxiliary value
	// claims ValueID ranks until its observed mass is covered.
	guess := make([]string, n)
	vi := 0
	remaining := 0
	for _, rank := range vids {
		if vi < len(vals) && remaining <= 0 {
			remaining = vals[vi].freq
		}
		if vi < len(vals) {
			guess[rank] = vals[vi].val
			remaining -= hist[rank]
			if remaining <= 0 {
				vi++
			}
		}
	}

	// Score: fraction of rows whose guessed plaintext is correct.
	correct := 0
	plainCache := make(map[int]string, n)
	for _, vid := range s.AVCodes() {
		pt, ok := plainCache[int(vid)]
		if !ok {
			raw, err := decrypt(s.AppendEntry(nil, int(vid)))
			if err != nil {
				return 0, fmt.Errorf("leakage: decrypt entry %d: %w", vid, err)
			}
			pt = string(raw)
			plainCache[int(vid)] = pt
		}
		if guess[vid] == pt {
			correct++
		}
	}
	return float64(correct) / float64(s.Rows()), nil
}

// OrderAttack runs a sorted-order matching attack: the attacker assumes
// dictionary positions follow plaintext order (true for sorted
// dictionaries, true only modulo a secret offset for rotated ones, false
// for shuffled ones), sorts the auxiliary values, and assigns them to
// positions proportionally to their observed attribute-vector mass. The
// return value is the fraction of rows recovered. Together with
// FrequencyAttack it covers both leakage dimensions of Figure 6: sorted
// dictionaries fall to this attack even under frequency hiding, which is
// exactly why ED7 < ED8 < ED9 in the order dimension.
func OrderAttack(s *dict.Split, decrypt func([]byte) ([]byte, error), aux AuxiliaryDistribution) (float64, error) {
	n := s.Len()
	if n == 0 || s.Rows() == 0 {
		return 0, nil
	}
	hist := VidHistogram(s.AVCodes(), n)
	total := 0
	for _, f := range aux {
		total += f
	}
	if total == 0 {
		return 0, nil
	}

	// Attacker side: auxiliary values in plaintext order with cumulative
	// mass fractions.
	vals := make([]string, 0, len(aux))
	for v := range aux {
		vals = append(vals, v)
	}
	sort.Strings(vals)

	// Walk dictionary positions in storage order, assigning each position
	// the auxiliary value whose cumulative mass bracket the position's
	// cumulative attribute-vector mass falls into.
	guess := make([]string, n)
	rows := s.Rows()
	seen := 0 // AV mass of positions assigned so far
	vi := 0   // current auxiliary value
	auxCovered := 0
	for pos := 0; pos < n; pos++ {
		posFrac := float64(seen) / float64(rows)
		for vi < len(vals)-1 && float64(auxCovered+aux[vals[vi]])/float64(total) <= posFrac {
			auxCovered += aux[vals[vi]]
			vi++
		}
		guess[pos] = vals[vi]
		seen += hist[pos]
	}

	correct := 0
	plainCache := make(map[int]string, n)
	for _, vid := range s.AVCodes() {
		pt, ok := plainCache[int(vid)]
		if !ok {
			raw, err := decrypt(s.AppendEntry(nil, int(vid)))
			if err != nil {
				return 0, fmt.Errorf("leakage: decrypt entry %d: %w", vid, err)
			}
			pt = string(raw)
			plainCache[int(vid)] = pt
		}
		if guess[vid] == pt {
			correct++
		}
	}
	return float64(correct) / float64(s.Rows()), nil
}
