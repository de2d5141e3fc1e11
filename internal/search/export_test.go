package search

// CompileBitsetPred compiles a ValueID list to the membership-bitmap form
// whatever its length — the reference the short-list range form must match.
var CompileBitsetPred = compileBitsetPred

// IsBitset reports whether p compiled to the membership-bitmap form.
func (p PackedPred) IsBitset() bool { return p.list }
