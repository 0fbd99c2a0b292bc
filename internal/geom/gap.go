package geom

import "sort"

// MaxGap returns the largest counterclockwise angular gap between
// consecutive directions in dirs, considering the circular wrap-around.
//
// By convention an empty direction set has a gap of 2π (everything is
// uncovered) and a single direction also has a gap of 2π (the full sweep
// returns to itself). Directions need not be sorted or normalized.
func MaxGap(dirs []float64) float64 {
	switch len(dirs) {
	case 0:
		return TwoPi
	case 1:
		return TwoPi
	}
	sorted := make([]float64, len(dirs))
	for i, d := range dirs {
		sorted[i] = Normalize(d)
	}
	sort.Float64s(sorted)

	maxGap := TwoPi - sorted[len(sorted)-1] + sorted[0] // wrap-around gap
	for i := 1; i < len(sorted); i++ {
		if g := sorted[i] - sorted[i-1]; g > maxGap {
			maxGap = g
		}
	}
	return maxGap
}

// HasGap reports whether the direction set leaves some cone of degree
// alpha empty: it is the paper's gap-α test. A gap of exactly alpha does
// NOT count (strict inequality, with Eps tolerance), matching the
// constructions in §2 of the paper where adjacent neighbors subtend an
// angle of exactly α.
func HasGap(dirs []float64, alpha float64) bool {
	return MaxGap(dirs) > alpha+Eps
}

// InsertSorted inserts Normalize(dir) into the ascending slice sorted,
// returning the extended slice. It is the incremental form of MaxGap's
// normalize-then-sort preamble: growing a direction set one insertion at
// a time costs O(k) instead of re-sorting O(k log k) per query, which is
// what the oracle's growing phase does after every admitted distance
// group.
func InsertSorted(sorted []float64, dir float64) []float64 {
	d := Normalize(dir)
	i := sort.SearchFloat64s(sorted, d)
	sorted = append(sorted, 0)
	copy(sorted[i+1:], sorted[i:])
	sorted[i] = d
	return sorted
}

// MaxGapSorted is MaxGap over a slice already normalized and ascending
// (as maintained by InsertSorted). It performs exactly the arithmetic of
// MaxGap's final pass, so the two agree bit-for-bit on the same set.
func MaxGapSorted(sorted []float64) float64 {
	if len(sorted) < 2 {
		return TwoPi
	}
	maxGap := TwoPi - sorted[len(sorted)-1] + sorted[0] // wrap-around gap
	for i := 1; i < len(sorted); i++ {
		if g := sorted[i] - sorted[i-1]; g > maxGap {
			maxGap = g
		}
	}
	return maxGap
}

// HasGapSorted is HasGap over an InsertSorted-maintained direction set.
func HasGapSorted(sorted []float64, alpha float64) bool {
	return MaxGapSorted(sorted) > alpha+Eps
}

// Covers reports whether bearing d's α-arc adds nothing to cover_α of
// the kept bearings sorted (normalized, ascending, as maintained by
// InsertSorted): the §3.1 shrink-back question of whether d may be
// dropped without changing the node's cone coverage. Let a ≤ d ≤ b be
// the kept bearings around d. The arcs of a and b overlap exactly when
// b−a ≤ α, and then they cover d's arc; when b−a > α there is a hole
// between them that d's arc reaches unless d coincides with a or b.
// Hence d is covered iff the kept gap straddling d is at most α+Eps —
// HasGap's tolerance; when d lies outside [first, last] this is the
// wrap gap 2π−last+first, which is 2π when every kept bearing coincides
// — or d lies within 10·Eps of a kept bearing. No kept bearings cover
// nothing.
func Covers(sorted []float64, d, alpha float64) bool {
	n := len(sorted)
	if n == 0 {
		return false
	}
	d = Normalize(d)
	i := sort.SearchFloat64s(sorted, d)
	lo, hi := sorted[(i+n-1)%n], sorted[i%n]
	gap := hi - lo
	if i == 0 || i == n {
		gap = TwoPi - sorted[n-1] + sorted[0]
	}
	if gap <= alpha+Eps {
		return true
	}
	return AngularDist(d, lo) <= 10*Eps || AngularDist(d, hi) <= 10*Eps
}
