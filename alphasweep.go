package cbtc

import (
	"context"
	"math"

	"cbtc/internal/core"
	"cbtc/internal/stats"
	"cbtc/internal/workload"
)

// AlphaSweepParams configures an α-sweep of the basic algorithm across
// random networks. The zero value sweeps 12 angles from π/6 to 5π/6 on
// 20 paper-sized networks.
type AlphaSweepParams struct {
	// Alphas are the cone angles to evaluate; nil means 12 evenly spaced
	// values in [π/6, 5π/6].
	Alphas []float64
	// Networks is the number of random networks per angle (0 = 20).
	Networks int
	// Nodes, Width, Height, MaxRadius default to the paper's setup.
	Nodes     int
	Width     float64
	Height    float64
	MaxRadius float64
	// Seed is the base seed.
	Seed uint64
}

// AlphaSweepRow is the sweep measurement at one cone angle.
type AlphaSweepRow struct {
	// Alpha is the cone angle.
	Alpha float64
	// AvgDegree and AvgRadius are Table 1's metrics for the basic
	// algorithm at this angle.
	AvgDegree float64
	AvgRadius float64
	// BoundaryFrac is the fraction of nodes finishing with an α-gap.
	BoundaryFrac float64
	// Connected is the fraction of networks whose G_α preserved the G_R
	// partition — 1.0 for every α ≤ 5π/6 (Theorem 2.1), and typically
	// below 1 above the bound on adversarial placements.
	Connected float64
}

// RunAlphaSweep measures the basic algorithm across cone angles:
// the trade-off curve behind the paper's choice of the two α values in
// Table 1 (smaller α ⇒ more neighbors and power; larger α ⇒ sparser,
// cheaper, until connectivity fails past 5π/6). Each angle gets its own
// Engine and the shared placements run through Engine.RunBatch.
// Cancelling ctx aborts the sweep.
func RunAlphaSweep(ctx context.Context, params AlphaSweepParams) ([]AlphaSweepRow, error) {
	p := params
	if p.Networks == 0 {
		p.Networks = 20
	}
	if p.Nodes == 0 {
		p.Nodes = workload.PaperNodes
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
	if p.Alphas == nil {
		for i := 0; i < 12; i++ {
			lo, hi := math.Pi/6, core.AlphaConnectivity
			p.Alphas = append(p.Alphas, lo+(hi-lo)*float64(i)/11)
		}
	}
	placements := make([][]Point, p.Networks)
	for i := range placements {
		placements[i] = workload.Uniform(workload.Rand(p.Seed+uint64(i)), p.Nodes, p.Width, p.Height)
	}

	rows := make([]AlphaSweepRow, 0, len(p.Alphas))
	for _, alpha := range p.Alphas {
		eng, err := New(WithMaxRadius(p.MaxRadius), WithAlpha(alpha))
		if err != nil {
			return nil, err
		}
		batch, err := eng.RunBatch(ctx, placements)
		if err != nil {
			return nil, err
		}
		var degree, radius, boundary, connected stats.Sample
		for _, res := range batch {
			degree.Add(res.AvgDegree)
			radius.Add(res.AvgRadius)
			boundary.Add(float64(res.BoundaryCount()) / float64(p.Nodes))
			if res.PreservesConnectivity() {
				connected.Add(1)
			} else {
				connected.Add(0)
			}
		}
		rows = append(rows, AlphaSweepRow{
			Alpha:        alpha,
			AvgDegree:    degree.Mean(),
			AvgRadius:    radius.Mean(),
			BoundaryFrac: boundary.Mean(),
			Connected:    connected.Mean(),
		})
	}
	return rows, nil
}

// RenderAlphaSweep formats sweep rows as an aligned table.
func RenderAlphaSweep(rows []AlphaSweepRow) string {
	tb := stats.NewTable("alpha(rad)", "alpha(deg)", "avg degree", "avg radius", "boundary frac", "connected frac")
	for _, r := range rows {
		tb.AddRow(
			stats.F(r.Alpha, 3),
			stats.F(r.Alpha*180/math.Pi, 1),
			stats.F(r.AvgDegree, 2),
			stats.F(r.AvgRadius, 1),
			stats.F(r.BoundaryFrac, 3),
			stats.F(r.Connected, 2),
		)
	}
	return tb.String()
}
