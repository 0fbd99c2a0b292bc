package cbtc

import (
	"context"
	"testing"
)

func panels(t *testing.T) map[string]Panel {
	t.Helper()
	ps, err := Figure6Panels(context.Background(), 42)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]Panel, len(ps))
	for _, p := range ps {
		out[p.Key] = p
	}
	return out
}

func TestFigure6PanelInventory(t *testing.T) {
	ps := panels(t)
	for _, key := range []string{"a", "b", "c", "d", "e", "f", "g", "h"} {
		p, ok := ps[key]
		if !ok {
			t.Fatalf("panel %s missing", key)
		}
		if p.Result == nil || p.Result.G.Len() != 100 {
			t.Errorf("panel %s: want a 100-node topology", key)
		}
		if p.Title == "" {
			t.Errorf("panel %s: missing title", key)
		}
	}
}

// The visual claims of Figure 6, as edge-count facts: every optimization
// stage sparsifies the previous one, on the SAME network.
func TestFigure6Sparsification(t *testing.T) {
	ps := panels(t)
	edges := func(k string) int { return ps[k].Result.G.EdgeCount() }

	// (a) is the densest; the basic algorithm thins it.
	if edges("b") >= edges("a") || edges("c") >= edges("a") {
		t.Errorf("basic algorithm must remove edges: a=%d b=%d c=%d", edges("a"), edges("b"), edges("c"))
	}
	// 5π/6 yields fewer edges than 2π/3 (weaker constraint).
	if edges("c") >= edges("b") {
		t.Errorf("α=5π/6 basic must be sparser than α=2π/3: c=%d b=%d", edges("c"), edges("b"))
	}
	// Shrink-back only removes.
	if edges("d") > edges("b") || edges("e") > edges("c") {
		t.Errorf("shrink-back must not add edges: b=%d d=%d / c=%d e=%d",
			edges("b"), edges("d"), edges("c"), edges("e"))
	}
	// Asymmetric removal strictly helps at 2π/3 on a dense instance.
	if edges("f") >= edges("d") {
		t.Errorf("asymmetric removal must remove edges: d=%d f=%d", edges("d"), edges("f"))
	}
	// All-ops panels are the sparsest of their α track.
	if edges("g") >= edges("e") {
		t.Errorf("pairwise removal must remove edges: e=%d g=%d", edges("e"), edges("g"))
	}
	if edges("h") >= edges("f") {
		t.Errorf("pairwise removal must remove edges: f=%d h=%d", edges("f"), edges("h"))
	}

	// Every panel preserves the connectivity of (a).
	for _, key := range []string{"b", "c", "d", "e", "f", "g", "h"} {
		if !ps[key].Result.PreservesConnectivity() {
			t.Errorf("panel %s broke connectivity", key)
		}
	}
}

// "CBTC allows nodes in the dense areas to automatically reduce their
// transmission radius": under the basic algorithm a visible fraction of
// nodes drops below max radius, and with all optimizations most nodes
// transmit at less than half of it.
func TestFigure6DenseAreaRadiusReduction(t *testing.T) {
	ps := panels(t)
	countBelow := func(key string, limit float64) int {
		n := 0
		for _, r := range ps[key].Result.Radii {
			if r < limit {
				n++
			}
		}
		return n
	}
	if got := countBelow("c", 450); got < 30 {
		t.Errorf("basic 5π/6: only %d/100 nodes below radius 450", got)
	}
	if got := countBelow("g", 250); got < 60 {
		t.Errorf("all-ops 5π/6: only %d/100 nodes below R/2", got)
	}
	// The all-ops panel has a strictly smaller radius profile.
	if ps["g"].Result.AvgRadius >= ps["c"].Result.AvgRadius {
		t.Errorf("all-ops radius %v must beat basic %v",
			ps["g"].Result.AvgRadius, ps["c"].Result.AvgRadius)
	}
}

func TestFigure6Deterministic(t *testing.T) {
	a, err := Figure6Panels(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure6Panels(context.Background(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !a[i].Result.G.Equal(b[i].Result.G) {
			t.Errorf("panel %s not deterministic", a[i].Key)
		}
	}
	c, err := Figure6Panels(context.Background(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Result.G.Equal(c[0].Result.G) {
		t.Errorf("different seeds gave identical max-power graphs (suspicious)")
	}
}
