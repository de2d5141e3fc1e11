package encdbdb

import (
	"github.com/encdbdb/encdbdb/internal/dict"
	"github.com/encdbdb/encdbdb/internal/leakage"
)

// LeakageReport quantifies what an honest-but-curious provider learns about
// a column under one encrypted dictionary choice (paper §6.1). The data
// owner evaluates candidate dictionaries on plaintext data, owner-side,
// before deploying — the paper's usage guideline (§6.4) made executable.
type LeakageReport struct {
	// Kind is the evaluated encrypted dictionary.
	Kind Kind
	// DictionaryEntries is |D|, which also drives storage and the
	// unsorted search cost.
	DictionaryEntries int
	// MaxValueIDFrequency is the largest attribute-vector count of any
	// ValueID: the attacker's frequency signal. Revealing exposes the
	// true maximum, smoothing bounds it by bsmax, hiding flattens it
	// to 1 (Table 3).
	MaxValueIDFrequency int
	// AdjacentOrderScore is the fraction of adjacent dictionary entries
	// in plaintext order: ~1.0 for sorted and rotated, ~0.5 for unsorted
	// (Table 4).
	AdjacentOrderScore float64
	// RankCorrelation is the Spearman correlation between storage
	// position and plaintext rank: ~1.0 for sorted, offset-dependent for
	// rotated, ~0 for unsorted.
	RankCorrelation float64
	// FrequencyAttackRecovery is the fraction of rows a frequency-
	// analysis attacker with perfect auxiliary knowledge recovers
	// (the practical reading of Table 5 / Figure 6).
	FrequencyAttackRecovery float64
	// OrderAttackRecovery is the fraction of rows a sorted-order matching
	// attacker recovers: high for sorted dictionaries even under
	// frequency hiding, low for rotated and unsorted ones.
	OrderAttackRecovery float64
}

// EvaluateLeakage simulates deploying values under the given dictionary and
// reports the resulting leakage. maxLen bounds value sizes; bsmax is the
// smoothing parameter for ED4-ED6 (ignored otherwise). The evaluation runs
// entirely on the owner's side; nothing leaves the process.
func (o *DataOwner) EvaluateLeakage(kind Kind, maxLen, bsmax int, values []string) (*LeakageReport, error) {
	col := make([][]byte, len(values))
	for i, v := range values {
		col[i] = []byte(v)
	}
	rnd, err := dict.NewRand()
	if err != nil {
		return nil, err
	}
	split, err := dict.Build(col, dict.Params{
		Kind:   kind,
		MaxLen: maxLen,
		BSMax:  bsmax,
		Plain:  true, // owner-side simulation: leakage is structural, not cryptographic
		Rand:   rnd,
	})
	if err != nil {
		return nil, err
	}
	identity := func(b []byte) ([]byte, error) { return b, nil }
	rep, err := leakage.Analyze(split, identity)
	if err != nil {
		return nil, err
	}
	aux := leakage.BuildAuxiliary(col)
	freqRecovery, err := leakage.FrequencyAttack(split, identity, aux)
	if err != nil {
		return nil, err
	}
	orderRecovery, err := leakage.OrderAttack(split, identity, aux)
	if err != nil {
		return nil, err
	}
	return &LeakageReport{
		Kind:                    kind,
		DictionaryEntries:       rep.DictLen,
		MaxValueIDFrequency:     rep.MaxVidFrequency,
		AdjacentOrderScore:      rep.AdjacentOrderScore,
		RankCorrelation:         rep.RankCorrelation,
		FrequencyAttackRecovery: freqRecovery,
		OrderAttackRecovery:     orderRecovery,
	}, nil
}
