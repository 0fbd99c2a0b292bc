package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s.add(float64(i))
	}
	for _, c := range []struct{ p, want float64 }{
		{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1},
	} {
		if got := s.pct(c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := (samples{7}).pct(99); got != 7 {
		t.Errorf("p99 of one sample = %g, want 7", got)
	}
	if got := (samples{}).pct(50); got != 0 {
		t.Errorf("p50 of no samples = %g, want 0", got)
	}
	// An even count takes the lower middle value.
	if got := (samples{4, 1, 3, 2}).median(); got != 2 {
		t.Errorf("median of 1..4 = %g, want 2", got)
	}
}

func TestPercentileDoesNotReorderSamples(t *testing.T) {
	s := samples{3, 1, 2}
	s.pct(50)
	if s[0] != 3 || s[1] != 1 || s[2] != 2 {
		t.Errorf("pct sorted its receiver: %v", s)
	}
}

func TestBeyondAndTailCheck(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want int
	}{
		{1000, 99, 10}, {999, 99, 9}, {1250, 99, 12}, {100, 90, 10}, {99, 90, 9}, {1125, 99, 11}, {0, 99, 0},
	} {
		if got := beyond(c.n, c.p); got != c.want {
			t.Errorf("beyond(%d, p%g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	if err := tailCheck("x", 1000, 99); err != nil {
		t.Errorf("1000 samples should support p99: %v", err)
	}
	if err := tailCheck("x", 999, 99); err == nil {
		t.Error("999 samples should not support p99")
	}
}
