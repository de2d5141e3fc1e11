package search

// SortedDict implements EnclDictSearch 1 (and 4 and 7; paper Algorithm 1):
// a leftmost binary search for the range start and a rightmost binary search
// for the range end over a lexicographically sorted dictionary. It returns
// the inclusive ValueID range of matching entries and false if no entry
// matches. Only O(log |D|) entries are loaded into the enclave and
// decrypted; required enclave memory is constant and independent of |D|.
func SortedDict(r Region, dec Decryptor, q Range) (VidRange, bool, error) {
	n := r.Len()
	d := &reader{r: r, dec: dec}
	if n == 0 || q.Empty() {
		return VidRange{}, false, nil
	}
	lo, err := lowestAdmitted(d, q, 0, n)
	if err != nil {
		return VidRange{}, false, err
	}
	if lo == n {
		return VidRange{}, false, nil // all entries below the range
	}
	hi, err := highestAdmitted(d, q, 0, n)
	if err != nil {
		return VidRange{}, false, err
	}
	if hi < lo {
		return VidRange{}, false, nil // range falls between two entries
	}
	return VidRange{Lo: uint32(lo), Hi: uint32(hi)}, true, nil
}

// lowestAdmitted returns the smallest index i in [lo, hi) whose value
// satisfies the range's lower bound, or hi if none does (leftmost binary
// search, BinarySearchLM).
func lowestAdmitted(d *reader, q Range, lo, hi int) (int, error) {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		v, err := d.value(mid)
		if err != nil {
			return 0, err
		}
		if startAdmits(q, v) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// highestAdmitted returns the largest index i in [lo, hi) whose value
// satisfies the range's upper bound, or lo-1 if none does (rightmost binary
// search, BinarySearchRM).
func highestAdmitted(d *reader, q Range, lo, hi int) (int, error) {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		v, err := d.value(mid)
		if err != nil {
			return 0, err
		}
		if endAdmits(q, v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1, nil
}
