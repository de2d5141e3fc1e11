package search

// UnsortedDict implements EnclDictSearch 3 (and 6 and 9; paper Algorithm 4):
// a linear scan over the whole dictionary. Every entry is loaded into the
// enclave, decrypted, and compared against the range; matching ValueIDs are
// returned in ascending order. The scan costs O(|D|) loads and decryptions
// but reveals neither order nor, combined with the hiding repetition,
// frequency information.
func UnsortedDict(r Region, dec Decryptor, q Range) ([]uint32, error) {
	n := r.Len()
	d := &reader{r: r, dec: dec}
	if n == 0 || q.Empty() {
		return nil, nil
	}
	var vids []uint32
	for i := 0; i < n; i++ {
		v, err := d.value(i)
		if err != nil {
			return nil, err
		}
		if q.Contains(v) {
			vids = append(vids, uint32(i))
		}
	}
	return vids, nil
}
