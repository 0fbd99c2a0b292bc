package main

import (
	"strings"
	"testing"
)

// A -count=3 run: parse must keep the median ns/op, not the last line,
// and the worst B/op and allocs/op. No median or maximum sits on a
// benchmark's last line.
const threeSamples = `goos: linux
BenchmarkOracle/grid-8          	       1	  30000000 ns/op	    2048 B/op	      20 allocs/op
BenchmarkOracle/grid-8          	       1	  20000000 ns/op	    4096 B/op	      22 allocs/op
BenchmarkOracle/grid-8          	       1	  10000000 ns/op	    1024 B/op	      21 allocs/op
BenchmarkTable1-8               	       1	    600000 ns/op
BenchmarkTable1-8               	       1	    500000 ns/op
BenchmarkTable1-8               	       1	    700000 ns/op
PASS
`

func TestParseUsesEverySample(t *testing.T) {
	rep, err := parseReport(strings.NewReader(threeSamples), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"BenchmarkOracle/grid": 20000000,
		"BenchmarkTable1":      600000,
	} {
		if got := rep.Benchmarks[name]; got != want {
			t.Errorf("%s: ns/op %v, want median %v", name, got, want)
		}
	}
	if got := rep.Bytes["BenchmarkOracle/grid"]; got != 4096 {
		t.Errorf("B/op %v, want max 4096", got)
	}
	if got := rep.Allocs["BenchmarkOracle/grid"]; got != 22 {
		t.Errorf("allocs/op %v, want max 22", got)
	}
	if _, ok := rep.Allocs["BenchmarkTable1"]; ok {
		t.Error("allocs/op recorded for a benchmark that reported none")
	}
}

func TestMedianEvenCount(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}
