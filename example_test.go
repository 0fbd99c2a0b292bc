package cbtc_test

import (
	"context"
	"errors"
	"fmt"

	"cbtc"
)

// Build a topology with the paper's tight connectivity bound and all
// optimizations.
func ExampleEngine_Run() {
	nodes := []cbtc.Point{
		cbtc.Pt(0, 0), cbtc.Pt(300, 0), cbtc.Pt(150, 250), cbtc.Pt(450, 200),
	}
	eng, err := cbtc.New(cbtc.WithMaxRadius(400), cbtc.WithAllOptimizations())
	if err != nil {
		panic(err)
	}
	res, err := eng.Run(context.Background(), nodes)
	if err != nil {
		panic(err)
	}
	fmt.Println("edges:", res.G.EdgeCount())
	fmt.Println("connectivity preserved:", res.PreservesConnectivity())
	// Output:
	// edges: 3
	// connectivity preserved: true
}

// Compare against a position-based baseline from the related work.
func ExampleEngine_Baseline() {
	nodes := []cbtc.Point{
		cbtc.Pt(0, 0), cbtc.Pt(100, 0), cbtc.Pt(50, 10),
	}
	eng, err := cbtc.New(cbtc.WithMaxRadius(400))
	if err != nil {
		panic(err)
	}
	res, err := eng.Baseline(cbtc.BaselineRNG, nodes)
	if err != nil {
		panic(err)
	}
	// The long 0-1 edge has a witness (node 2) and is eliminated.
	fmt.Println("0-1 present:", res.G.HasEdge(0, 1))
	fmt.Println("edges:", res.G.EdgeCount())
	// Output:
	// 0-1 present: false
	// edges: 2
}

// The asymmetric edge removal optimization is guarded by Theorem 3.2's
// angle bound: WithAllOptimizations enables it only where it is safe,
// and New rejects an explicit request above 2π/3.
func ExampleWithAllOptimizations() {
	for _, alpha := range []float64{cbtc.AlphaAsymmetric, cbtc.AlphaConnectivity} {
		_, allErr := cbtc.New(cbtc.WithMaxRadius(400), cbtc.WithAlpha(alpha), cbtc.WithAllOptimizations())
		_, asymErr := cbtc.New(cbtc.WithMaxRadius(400), cbtc.WithAlpha(alpha), cbtc.WithAsymmetricRemoval())
		fmt.Printf("α=%.4f all-ops ok: %v, explicit asym removal ok: %v\n",
			alpha, allErr == nil, !errors.Is(asymErr, cbtc.ErrBadConfig))
	}
	// Output:
	// α=2.0944 all-ops ok: true, explicit asym removal ok: true
	// α=2.6180 all-ops ok: true, explicit asym removal ok: false
}
