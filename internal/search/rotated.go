package search

import (
	"bytes"
	"fmt"

	"github.com/encdbdb/encdbdb/internal/fixint"
	"github.com/encdbdb/encdbdb/internal/ordenc"
)

// RotatedDict implements EnclDictSearch 2 (and 5 and 8; paper Algorithms 2
// and 3): range search over a sorted dictionary that was rotated by a secret
// random offset.
//
// Following Algorithm 3, every comparison happens in a transformed domain
// that is invariant under the rotation: with r = ENCODE(Dec(eD[0])) and
// N = 256^maxLen, each value v maps to T(v) = (ENCODE(v) - r) mod N. In
// that domain the stored dictionary is monotonically increasing, so two
// plain binary searches locate the range bounds without ever touching the
// rotation offset — the access pattern is therefore independent of
// rndOffset, which a naive "unrotate then search" would leak on its first
// probe.
//
// One corner case needs care for the frequency smoothing and hiding kinds
// (paper §4.1, ED5): a run of entries whose plaintext equals Dec(eD[0]) may
// wrap around the array end. Those trailing entries all have T = 0 and
// break monotonicity, so they are excluded from the binary searches and
// appended to the result iff their plaintext falls into the queried range.
// The run's length tailRun comes from the dictionary's sealed header
// (dict.DecodeRotOffset), written at build time; nothing walks the run.
// checkTailRun proves the claimed boundary with at most two loads, so the
// whole search costs O(log |D|) loads whatever the rotation offset.
//
// The result is at most two inclusive ValueID ranges (matching the paper's
// two-range output shape): one when the match region is contiguous, two
// when the queried plaintext interval spans the rotation point.
func RotatedDict(r Region, dec Decryptor, enc *ordenc.Encoder, q Range, tailRun int) ([]VidRange, error) {
	n := r.Len()
	d := &reader{r: r, dec: dec}
	if n == 0 || q.Empty() {
		return nil, nil
	}
	if tailRun < 0 || tailRun >= n {
		return nil, fmt.Errorf("%w: tail run %d for |D| = %d", ErrTailRun, tailRun, n)
	}

	first, err := d.value(0)
	if err != nil {
		return nil, err
	}
	// d0 is the pivot plaintext; keep a copy since the Decryptor's buffer
	// is reused by subsequent loads.
	d0 := append([]byte(nil), first...)
	m := n - tailRun // searchable prefix [0, m) is sorted in the transformed domain
	if err := checkTailRun(d, d0, m); err != nil {
		return nil, err
	}

	width := enc.MaxLen()
	rBase := enc.Encode(d0)
	tq := transformedQuery{
		enc:   enc,
		rBase: rBase,
		start: enc.Transform(q.Start, rBase, fixint.New(width)),
		end:   enc.Transform(q.End, rBase, fixint.New(width)),
		q:     q,
		buf:   fixint.New(width),
	}

	lo, err := tq.lowestAdmitted(d, m)
	if err != nil {
		return nil, err
	}
	hi, err := tq.highestAdmitted(d, m)
	if err != nil {
		return nil, err
	}

	var out []VidRange
	if tq.start.Cmp(tq.end) <= 0 {
		// The plaintext interval does not span the rotation point:
		// matches are contiguous in [0, m).
		if lo < m && hi >= lo {
			out = append(out, VidRange{Lo: uint32(lo), Hi: uint32(hi)})
		}
	} else {
		// The interval spans the rotation point: matches are a suffix
		// (values >= start) and a prefix (values <= end) of [0, m).
		if hi >= 0 {
			out = append(out, VidRange{Lo: 0, Hi: uint32(hi)})
		}
		if lo < m {
			out = append(out, VidRange{Lo: uint32(lo), Hi: uint32(m - 1)})
		}
	}

	if tailRun > 0 && q.Contains(d0) {
		out = appendTailRun(out, m, n)
	}
	return out, nil
}

// checkTailRun verifies a sealed run boundary m = |D| - tailRun against the
// dictionary. Equal plaintexts sit circularly contiguous in a rotated
// dictionary, so two loads settle it: with a run, D[m] must equal D[0] and
// D[m-1] must not; without one, D[|D|-1] must differ from D[0]. A header
// from another build or a tampered one therefore surfaces as ErrTailRun
// rather than as a wrong answer. The one claim two loads cannot prove is
// that the whole dictionary holds D[0]'s value (m = 1, where D[m-1] is D[0]
// itself): both ends of the claimed run, D[1] and D[|D|-1], are checked
// instead, which misses only other values sitting strictly between them.
func checkTailRun(d *reader, d0 []byte, m int) error {
	n := d.r.Len()
	expect := func(i int, same bool) error {
		v, err := d.value(i)
		if err != nil {
			return err
		}
		if bytes.Equal(v, d0) != same {
			return fmt.Errorf("%w: entry %d contradicts a tail run of %d", ErrTailRun, i, n-m)
		}
		return nil
	}
	switch {
	case n == 1:
		return nil
	case m == n:
		return expect(n-1, false)
	case m == 1:
		if err := expect(1, true); err != nil {
			return err
		}
		return expect(n-1, true)
	default:
		if err := expect(m, true); err != nil {
			return err
		}
		return expect(m-1, false)
	}
}

// transformedQuery carries the rotation-invariant representation of the
// query bounds plus a scratch buffer for per-probe transforms.
type transformedQuery struct {
	enc   *ordenc.Encoder
	rBase fixint.Value
	start fixint.Value
	end   fixint.Value
	q     Range
	buf   fixint.Value
}

// lowestAdmitted returns the smallest index in [0, m) whose transformed
// value satisfies the lower bound, or m if none does.
func (t *transformedQuery) lowestAdmitted(d *reader, m int) (int, error) {
	lo, hi := 0, m
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		v, err := d.value(mid)
		if err != nil {
			return 0, err
		}
		tv := t.enc.Transform(v, t.rBase, t.buf)
		c := tv.Cmp(t.start)
		if c > 0 || (c == 0 && t.q.StartIncl) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// highestAdmitted returns the largest index in [0, m) whose transformed
// value satisfies the upper bound, or -1 if none does.
func (t *transformedQuery) highestAdmitted(d *reader, m int) (int, error) {
	lo, hi := 0, m
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		v, err := d.value(mid)
		if err != nil {
			return 0, err
		}
		tv := t.enc.Transform(v, t.rBase, t.buf)
		c := tv.Cmp(t.end)
		if c < 0 || (c == 0 && t.q.EndIncl) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1, nil
}

// appendTailRun adds the wrapped run [m, n-1] to the result, merging it with
// a range that already ends at m-1 so the output stays within two ranges.
// The run's plaintext equals Dec(eD[0]) = the minimum of the transformed
// domain, so whenever the run matches, position 0 matches as well and the
// merge below cannot produce more than two disjoint ranges.
func appendTailRun(out []VidRange, m, n int) []VidRange {
	for i := range out {
		if out[i].Hi == uint32(m-1) {
			out[i].Hi = uint32(n - 1)
			return out
		}
	}
	return append(out, VidRange{Lo: uint32(m), Hi: uint32(n - 1)})
}
