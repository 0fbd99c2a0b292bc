// Command alphasweep sweeps the cone angle α across random networks and
// prints the trade-off curve behind the paper's analysis: smaller α
// means more neighbors and higher power; larger α means sparser and
// cheaper topologies — with 5π/6 the last angle where connectivity is
// guaranteed (Theorem 2.1/2.4).
//
// Usage:
//
//	alphasweep [-networks 20] [-nodes 100] [-radius 500] [-seed 1] [-steps 12]
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"

	"cbtc"
)

func main() {
	networks := flag.Int("networks", 20, "networks per angle")
	nodes := flag.Int("nodes", 100, "nodes per network")
	radius := flag.Float64("radius", 500, "maximum transmission radius R")
	seed := flag.Uint64("seed", 1, "base random seed")
	steps := flag.Int("steps", 12, "number of α values between π/6 and 5π/6")
	flag.Parse()

	var alphas []float64
	lo, hi := math.Pi/6, cbtc.AlphaConnectivity
	for i := 0; i < *steps; i++ {
		alphas = append(alphas, lo+(hi-lo)*float64(i)/float64(*steps-1))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	rows, err := cbtc.RunAlphaSweep(ctx, cbtc.AlphaSweepParams{
		Alphas:    alphas,
		Networks:  *networks,
		Nodes:     *nodes,
		MaxRadius: *radius,
		Seed:      *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "alphasweep:", err)
		os.Exit(1)
	}
	fmt.Printf("basic CBTC(α) sweep: %d networks × %d nodes, R=%g\n\n", *networks, *nodes, *radius)
	fmt.Print(cbtc.RenderAlphaSweep(rows))
	fmt.Println("\nα = 5π/6 ≈ 2.618 is the connectivity bound: beyond it, adversarial")
	fmt.Println("placements (see cmd/counterexample) disconnect, though random")
	fmt.Println("networks typically survive.")
}
