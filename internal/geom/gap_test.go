package geom

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMaxGap(t *testing.T) {
	tests := []struct {
		name string
		dirs []float64
		want float64
	}{
		{"empty", nil, TwoPi},
		{"single", []float64{1.0}, TwoPi},
		{"opposite pair", []float64{0, math.Pi}, math.Pi},
		{"quarter points", []float64{0, math.Pi / 2, math.Pi, 3 * math.Pi / 2}, math.Pi / 2},
		{"clustered", []float64{0, 0.1, 0.2}, TwoPi - 0.2},
		{"unsorted", []float64{math.Pi, 0, math.Pi / 2, 3 * math.Pi / 2}, math.Pi / 2},
		{"unnormalized", []float64{-math.Pi / 2, math.Pi / 2}, math.Pi},
		{"duplicates", []float64{1, 1, 1}, TwoPi},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := MaxGap(tt.dirs); !almostEq(got, tt.want, 1e-9) {
				t.Errorf("MaxGap(%v) = %v, want %v", tt.dirs, got, tt.want)
			}
		})
	}
}

func TestHasGap(t *testing.T) {
	third := TwoPi / 3
	dirs := []float64{0, third, 2 * third} // gaps of exactly 2π/3
	if HasGap(dirs, third) {
		t.Errorf("gap of exactly α must not count as an α-gap")
	}
	if !HasGap(dirs, third-0.01) {
		t.Errorf("gap of 2π/3 must count against α = 2π/3 - 0.01")
	}
	if !HasGap(nil, math.Pi) {
		t.Errorf("empty set must always have a gap")
	}
}

// MaxGap must be invariant under rotation of all directions and under
// permutation (it sorts internally, so shuffling tests the same entry
// points the algorithm uses).
func TestMaxGapRotationInvariantProperty(t *testing.T) {
	f := func(seed uint64, rot float64, n uint8) bool {
		if math.IsNaN(rot) {
			return true
		}
		// Large rotations destroy float precision in dirs[i]+rot without
		// testing anything new; keep the offset physically meaningful.
		rot = math.Mod(rot, 1e3)
		rng := rand.New(rand.NewPCG(seed, 17))
		k := int(n%16) + 2
		dirs := make([]float64, k)
		rotated := make([]float64, k)
		for i := range dirs {
			dirs[i] = rng.Float64() * TwoPi
			rotated[i] = dirs[i] + rot
		}
		return almostEq(MaxGap(dirs), MaxGap(rotated), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// The sum of all consecutive gaps is 2π, so the max gap is at least
// 2π/k for k directions.
func TestMaxGapLowerBoundProperty(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 23))
		k := int(n%32) + 1
		dirs := make([]float64, k)
		for i := range dirs {
			dirs[i] = rng.Float64() * TwoPi
		}
		return MaxGap(dirs) >= TwoPi/float64(k)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Adding a direction can never increase the maximum gap.
func TestMaxGapMonotoneProperty(t *testing.T) {
	f := func(seed uint64, n uint8, extra float64) bool {
		if math.IsNaN(extra) || math.IsInf(extra, 0) {
			return true
		}
		rng := rand.New(rand.NewPCG(seed, 31))
		k := int(n%16) + 1
		dirs := make([]float64, k)
		for i := range dirs {
			dirs[i] = rng.Float64() * TwoPi
		}
		before := MaxGap(dirs)
		after := MaxGap(append(dirs, Normalize(extra)))
		return after <= before+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMaxGap(b *testing.B) {
	rng := rand.New(rand.NewPCG(42, 1))
	dirs := make([]float64, 64)
	for i := range dirs {
		dirs[i] = rng.Float64() * TwoPi
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaxGap(dirs)
	}
}

func TestInsertSortedMatchesMaxGap(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(40)
		dirs := make([]float64, n)
		var sorted []float64
		for i := range dirs {
			dirs[i] = rng.Float64()*3*TwoPi - TwoPi // unnormalized on purpose
			sorted = InsertSorted(sorted, dirs[i])
			if got, want := MaxGapSorted(sorted), MaxGap(dirs[:i+1]); got != want {
				t.Fatalf("trial %d size %d: MaxGapSorted = %v, MaxGap = %v", trial, i+1, got, want)
			}
		}
	}
	if MaxGapSorted(nil) != TwoPi || MaxGapSorted([]float64{1}) != TwoPi {
		t.Fatal("degenerate direction sets must report a full-circle gap")
	}
}

func TestCovers(t *testing.T) {
	third := TwoPi / 3
	cases := []struct {
		name     string
		kept     []float64
		d, alpha float64
		want     bool
	}{
		{"no kept bearings", nil, 1, math.Pi, false},
		{"coincident kept bearings leave a 2π wrap gap", []float64{1, 1, 1}, 1.3, math.Pi / 2, false},
		{"d on coincident kept bearings", []float64{1, 1, 1}, 1, math.Pi / 2, true},
		{"d equal to a kept bearing", []float64{0, 2}, 2, 1, true},
		{"d within 10·Eps of a kept bearing", []float64{0, 2}, 2 + 5*Eps, 1, true},
		{"d 20·Eps past a kept bearing", []float64{0, 2}, 2 + 20*Eps, 1, false},
		{"wrap gap straddles 0", []float64{0.2, TwoPi - 0.2}, 0, 0.5, true},
		{"wrap gap straddles 2π", []float64{0.2, TwoPi - 0.2}, TwoPi - 1e-12, 0.5, true},
		{"unnormalized d in the wrap gap", []float64{0.2, TwoPi - 0.2}, -0.1, 0.5, true},
		{"wide wrap gap", []float64{0.3, 3}, TwoPi - 1e-12, 1, false},
		{"d coincides across 0", []float64{1e-12, 3}, TwoPi - 1e-12, 1, true},
		{"gap of exactly α", []float64{0, 1}, 0.5, 1, true},
		{"gaps of exactly 2π/3", []float64{0, third, 2 * third}, 1, third, true},
		{"gap of α+2·Eps", []float64{0, 1 + 2*Eps}, 0.5, 1, false},
		{"full-circle cone", []float64{1}, 4, TwoPi, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Covers(tc.kept, tc.d, tc.alpha); got != tc.want {
				t.Errorf("Covers(%v, %v, %v) = %v, want %v", tc.kept, tc.d, tc.alpha, got, tc.want)
			}
			checkCovers(t, tc.kept, tc.d, tc.alpha)
		})
	}
	t.Run("random sets match the definition", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(16, 3))
		for trial := 0; trial < 500; trial++ {
			kept := make([]float64, rng.IntN(8))
			for i := range kept {
				kept[i] = rng.Float64() * TwoPi
			}
			checkCovers(t, kept, rng.Float64()*TwoPi, 0.01+rng.Float64()*(TwoPi-0.01))
		}
	})
}
