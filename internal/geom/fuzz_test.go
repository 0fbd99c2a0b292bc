package geom

import (
	"math"
	"slices"
	"testing"
)

// FuzzNormalize: the canonical range holds for every finite input.
func FuzzNormalize(f *testing.F) {
	for _, seed := range []float64{0, math.Pi, -math.Pi, TwoPi, -1e9, 1e9, 1e300, math.SmallestNonzeroFloat64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, theta float64) {
		if math.IsNaN(theta) || math.IsInf(theta, 0) {
			return
		}
		n := Normalize(theta)
		if n < 0 || n >= TwoPi {
			t.Errorf("Normalize(%v) = %v out of [0, 2π)", theta, n)
		}
	})
}

// maxUncovered samples the definition of cover_α — bearing θ is covered
// by a direction set iff some direction lies within α/2 of θ — over d's
// α-arc. It returns the largest amount by which a probe in that arc
// misses α/2 to its nearest kept bearing: positive means d's arc reaches
// a bearing kept's arcs leave uncovered. The probes are 3600 evenly
// spaced bearings plus every arc endpoint d±α/2 and k±α/2; the midpoint
// of each kept gap is added too, since it is the point of that gap
// farthest from the kept bearings, so holes narrower than the grid
// spacing are still seen.
func maxUncovered(kept []float64, d, alpha float64) float64 {
	probes := []float64{d - alpha/2, d + alpha/2}
	for j := 0; j < 3600; j++ {
		probes = append(probes, float64(j)*TwoPi/3600)
	}
	for i, k := range kept {
		next := kept[(i+1)%len(kept)]
		probes = append(probes, k-alpha/2, k+alpha/2, k+CCWDelta(k, next)/2)
		if CCWDelta(k, next) == 0 {
			probes = append(probes, k+math.Pi) // all bearings coincide: the gap is the whole circle
		}
	}
	worst := math.Inf(-1)
	for _, theta := range probes {
		if AngularDist(theta, d) > alpha/2 {
			continue
		}
		nearest := math.Inf(1)
		for _, k := range kept {
			nearest = math.Min(nearest, AngularDist(theta, k))
		}
		worst = math.Max(worst, nearest-alpha/2)
	}
	return worst
}

// checkCovers compares Covers with the sampled definition. The kernel
// counts a gap of up to α+Eps as closed and a bearing within 10·Eps of a
// kept one as coincident, so a covered d may stick out of the kept
// arcs by up to 10·Eps, and an uncovered one always sticks out by more
// than Eps/2.
func checkCovers(t *testing.T, kept []float64, d, alpha float64) {
	t.Helper()
	sorted := slices.Clone(kept)
	for i := range sorted {
		sorted[i] = Normalize(sorted[i])
	}
	slices.Sort(sorted)
	got := Covers(sorted, d, alpha)
	miss := maxUncovered(sorted, Normalize(d), alpha)
	if got && miss > 10*Eps+1e-12 {
		t.Errorf("Covers(%v, %v, %v) = true, but d's arc reaches %v past the kept arcs", sorted, d, alpha, miss)
	}
	if !got && miss <= Eps/4 {
		t.Errorf("Covers(%v, %v, %v) = false, but the kept arcs cover d's arc (miss %v)", sorted, d, alpha, miss)
	}
}

// FuzzCovers: the angular kernel agrees with the definition of cover_α
// for any kept multiset of up to four bearings, any bearing d and any
// cone angle.
func FuzzCovers(f *testing.F) {
	f.Add(uint8(4), 0.5, 1.0, 2.0, 3.0, 1.5, math.Pi/2)
	f.Add(uint8(3), 1.0, 1.0, 1.0, 0.0, 1.3, math.Pi/2)
	f.Add(uint8(2), 0.2, TwoPi-0.2, 0.0, 0.0, 0.0, 0.5)
	f.Add(uint8(2), 0.0, 1.0, 0.0, 0.0, 0.5, 1.0)
	f.Add(uint8(4), 1.0, 2.5, 4.0, 5.5, 2.5, 5*math.Pi/6)
	f.Fuzz(func(t *testing.T, n uint8, k1, k2, k3, k4, d, alphaRaw float64) {
		for _, v := range []float64{k1, k2, k3, k4, d, alphaRaw} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return
			}
		}
		alpha := math.Mod(math.Abs(alphaRaw), TwoPi-0.01) + 0.01
		checkCovers(t, []float64{k1, k2, k3, k4}[:n%5], d, alpha)
	})
}
