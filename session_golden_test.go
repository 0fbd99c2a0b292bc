package cbtc

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"testing"

	"cbtc/internal/workload"
)

// goldenSessionStacks are the option stacks whose §4 session histories
// are pinned by TestSessionHistoryGolden: the durability stacks plus
// shrink-back under per-link shadowing.
var goldenSessionStacks = append(append([]struct {
	name string
	opts []Option
}{}, checkpointStacks...), struct {
	name string
	opts []Option
}{"shadowed-shrink-back", []Option{WithMaxRadius(500), WithShrinkBack(), WithShadowing(8, 42)}})

// sessionGolden is what TestSessionHistoryGolden records per stack: the
// §4 counters, the final edge count and an FNV-64a hash of G's edge list.
type sessionGolden struct {
	stats SessionStats
	edges int
	hash  string
}

// The values below were generated at commit f9fa92c, before shrink-back
// and the Reconfigurator's shrink decided coverage with geom.Covers; the
// test pins both §4 decisions (shrink and regrow) against that fixed
// reference rather than against a second run of the same code.
var sessionGoldens = map[string]sessionGolden{
	"basic":                {SessionStats{Joins: 7, Leaves: 9, Moves: 180, AngleChanges: 1564, Regrows: 870, Repairs: 4395}, 594, "8d1ec75d14e72a52"},
	"shrink-back":          {SessionStats{Joins: 7, Leaves: 9, Moves: 180, AngleChanges: 1564, Regrows: 870, Repairs: 4395}, 458, "484679259b625103"},
	"all-ops":              {SessionStats{Joins: 7, Leaves: 9, Moves: 180, AngleChanges: 1564, Regrows: 870, Repairs: 4395}, 142, "1f979a0d5151a161"},
	"asym-2pi3":            {SessionStats{Joins: 7, Leaves: 9, Moves: 180, AngleChanges: 2016, Regrows: 1344, Repairs: 3981}, 327, "050f325c02ecd568"},
	"quantized":            {SessionStats{Joins: 7, Leaves: 9, Moves: 180, AngleChanges: 1564, Regrows: 870, Repairs: 4395}, 506, "896050432d884f3f"},
	"shadowed-shrink-back": {SessionStats{Joins: 7, Leaves: 9, Moves: 180, AngleChanges: 1853, Regrows: 1150, Repairs: 5904}, 545, "f9bff93f89c9c81a"},
}

// TestSessionHistoryGolden drives a 100-node paper network through 30
// DriftTick ticks on every golden stack and compares the counters, the
// edge count and the edge hash with a fixed reference. DriftTick clamps
// drifted nodes onto the region edge, so the history includes neighbors
// that are collinear with their observer — the degenerate bearing sets
// the angular kernel has to decide exactly.
func TestSessionHistoryGolden(t *testing.T) {
	ctx := context.Background()
	sc := workload.Fleet(1, workload.PaperNodes, "uniform")
	tick := fleetTick(sc)
	for _, st := range goldenSessionStacks {
		st := st
		t.Run(st.name, func(t *testing.T) {
			eng, err := New(st.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := eng.NewSession(ctx, workload.PaperNetwork(7))
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(7, 1))
			for tk := 0; tk < 30; tk++ {
				if _, err := sess.ApplyBatch(tick(0, tk, rng, sess)); err != nil {
					t.Fatal(err)
				}
			}
			onEdge := 0
			for id := 0; id < sess.Len(); id++ {
				if p := sess.Position(id); sess.Alive(id) && (p.X == 0 || p.Y == 0 || p.X == sc.Side || p.Y == sc.Side) {
					onEdge++
				}
			}
			if onEdge < 2 {
				t.Fatalf("only %d live nodes on the region edge; the history has no collinear neighbors", onEdge)
			}
			snap, err := sess.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			var buf [8]byte
			for _, e := range snap.G.Edges() {
				binary.LittleEndian.PutUint32(buf[:4], uint32(e.U))
				binary.LittleEndian.PutUint32(buf[4:], uint32(e.V))
				h.Write(buf[:])
			}
			got := sessionGolden{stats: sess.Stats(), edges: snap.G.EdgeCount(), hash: fmt.Sprintf("%016x", h.Sum64())}
			if want, ok := sessionGoldens[st.name]; !ok || got != want {
				t.Errorf("history diverges from the reference:\n got  %q: {stats: %#v, edges: %d, hash: %q},\n want %+v", st.name, got.stats, got.edges, got.hash, want)
			}
		})
	}
}
