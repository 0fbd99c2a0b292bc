package cbtc

import (
	"context"
	"fmt"

	"cbtc/internal/graph"
	"cbtc/internal/stats"
	"cbtc/internal/workload"
)

// DensitySweepParams configures a node-density sweep at fixed region
// size. The zero value sweeps 50–400 nodes over 10 paper-sized networks
// per density.
type DensitySweepParams struct {
	// NodeCounts are the densities to evaluate; nil means
	// {25, 50, 100, 200, 400}.
	NodeCounts []int
	// Networks is the number of random networks per density (0 = 10).
	Networks int
	// Width, Height, MaxRadius default to the paper's setup.
	Width     float64
	Height    float64
	MaxRadius float64
	// Seed is the base seed.
	Seed uint64
}

// DensitySweepRow is the measurement at one node count.
type DensitySweepRow struct {
	// Nodes is the network size.
	Nodes int
	// MaxPowerDegree is the average degree with no topology control —
	// it grows linearly with density.
	MaxPowerDegree float64
	// CBTCDegree is the average degree under CBTC(5π/6) with all
	// optimizations — the paper's motivation is that it stays bounded.
	CBTCDegree float64
	// CBTCRadius is the matching average radius; it shrinks with
	// density as nearer neighbors close the cones.
	CBTCRadius float64
	// Interference is the average link interference under CBTC.
	Interference float64
}

// RunDensitySweep measures how topology control decouples node
// degree from deployment density: without control the degree grows
// linearly in the number of nodes; with CBTC it stays essentially
// constant while the per-node radius shrinks. This is the scalability
// argument of the paper's introduction. One Engine serves every
// density; each density's networks run through Engine.RunBatch.
// Cancelling ctx aborts the sweep.
func RunDensitySweep(ctx context.Context, params DensitySweepParams) ([]DensitySweepRow, error) {
	p := params
	if p.NodeCounts == nil {
		p.NodeCounts = []int{25, 50, 100, 200, 400}
	}
	if p.Networks == 0 {
		p.Networks = 10
	}
	if p.Width == 0 {
		p.Width = workload.PaperRegionW
	}
	if p.Height == 0 {
		p.Height = workload.PaperRegionH
	}
	if p.MaxRadius == 0 {
		p.MaxRadius = workload.PaperRadius
	}
	eng, err := New(
		WithMaxRadius(p.MaxRadius),
		WithShrinkBack(),
		WithPairwiseRemoval(PairwiseLengthFiltered),
	)
	if err != nil {
		return nil, err
	}

	rows := make([]DensitySweepRow, 0, len(p.NodeCounts))
	for _, n := range p.NodeCounts {
		placements := make([][]Point, p.Networks)
		for i := range placements {
			placements[i] = workload.Uniform(workload.Rand(p.Seed+uint64(i)), n, p.Width, p.Height)
		}
		batch, err := eng.RunBatch(ctx, placements)
		if err != nil {
			return nil, err
		}
		var maxDeg, deg, rad, intf stats.Sample
		for _, res := range batch {
			maxDeg.Add(graph.AvgDegree(res.GR))
			deg.Add(res.AvgDegree)
			rad.Add(res.AvgRadius)
			intf.Add(res.AvgInterference())
		}
		rows = append(rows, DensitySweepRow{
			Nodes:          n,
			MaxPowerDegree: maxDeg.Mean(),
			CBTCDegree:     deg.Mean(),
			CBTCRadius:     rad.Mean(),
			Interference:   intf.Mean(),
		})
	}
	return rows, nil
}

// RenderDensitySweep formats sweep rows as an aligned table.
func RenderDensitySweep(rows []DensitySweepRow) string {
	tb := stats.NewTable("nodes", "max-power degree", "CBTC degree", "CBTC radius", "CBTC interference")
	for _, r := range rows {
		tb.AddRow(
			fmt.Sprint(r.Nodes),
			stats.F(r.MaxPowerDegree, 1),
			stats.F(r.CBTCDegree, 2),
			stats.F(r.CBTCRadius, 1),
			stats.F(r.Interference, 1),
		)
	}
	return tb.String()
}
