// Command topoviz regenerates Figure 6 of the paper: eight SVG panels of
// the same random network under no topology control, the basic CBTC
// algorithm at α = 2π/3 and 5π/6, and each optimization stack. It also
// prints the per-panel statistics (edges, average degree, average
// radius).
//
// Usage:
//
//	topoviz [-seed 42] [-out figure6] [-labels]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cbtc"
	"cbtc/internal/stats"
	"cbtc/internal/svgplot"
)

func main() {
	seed := flag.Uint64("seed", 42, "random seed selecting the network")
	out := flag.String("out", "figure6", "output directory for the SVG panels")
	labels := flag.Bool("labels", false, "draw node indices, as the paper's figure does")
	flag.Parse()

	panels, err := cbtc.Figure6Panels(context.Background(), *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topoviz:", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "topoviz:", err)
		os.Exit(1)
	}

	tb := stats.NewTable("panel", "configuration", "edges", "avg degree", "avg radius", "file")
	for _, p := range panels {
		name := fmt.Sprintf("panel_%s.svg", p.Key)
		path := filepath.Join(*out, name)
		svg := svgplot.Render(p.Result.G, p.Result.Pos, svgplot.Style{
			Labels: *labels,
			Title:  fmt.Sprintf("(%s) %s", p.Key, p.Title),
		})
		if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "topoviz:", err)
			os.Exit(1)
		}
		tb.AddRow("("+p.Key+")", p.Title,
			fmt.Sprint(p.Result.G.EdgeCount()),
			stats.F(p.Result.AvgDegree, 2),
			stats.F(p.Result.AvgRadius, 1),
			path)
	}
	fmt.Printf("Figure 6 reproduction (seed %d)\n\n%s", *seed, tb.String())
}
