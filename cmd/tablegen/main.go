// Command tablegen regenerates Table 1 of the paper: average node degree
// and average transmission radius of CBTC under each optimization stack,
// averaged over randomly generated networks, printed next to the values
// the paper reports.
//
// Usage:
//
//	tablegen [-networks 100] [-nodes 100] [-width 1500] [-height 1500]
//	         [-radius 500] [-seed 1] [-csv]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"cbtc"
	"cbtc/internal/stats"
)

func main() {
	networks := flag.Int("networks", 100, "number of random networks to average over")
	nodes := flag.Int("nodes", 100, "nodes per network")
	width := flag.Float64("width", 1500, "region width")
	height := flag.Float64("height", 1500, "region height")
	radius := flag.Float64("radius", 500, "maximum transmission radius R")
	seed := flag.Uint64("seed", 1, "base random seed")
	csv := flag.Bool("csv", false, "emit CSV instead of an aligned table")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	res, err := cbtc.RunTable1(ctx, cbtc.Table1Params{
		Networks:  *networks,
		Nodes:     *nodes,
		Width:     *width,
		Height:    *height,
		MaxRadius: *radius,
		Seed:      *seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tablegen:", err)
		os.Exit(1)
	}

	fmt.Printf("Table 1 reproduction: %d networks × %d nodes, %gx%g region, R=%g\n\n",
		res.Params.Networks, res.Params.Nodes, res.Params.Width, res.Params.Height, res.Params.MaxRadius)
	if *csv {
		tb := stats.NewTable("column", "degree_paper", "degree_measured", "radius_paper", "radius_measured")
		for i, col := range res.Columns {
			tb.AddRow(col.Name,
				stats.F(col.PaperDegree, 1), stats.F(res.Cells[i].AvgDegree, 2),
				stats.F(col.PaperRadius, 1), stats.F(res.Cells[i].AvgRadius, 2))
		}
		fmt.Print(tb.CSV())
		return
	}
	fmt.Print(res.Render())
}
