package workload

import (
	"fmt"

	"cbtc/internal/geom"
)

// FleetScenario describes one many-networks workload: M independent
// networks of N nodes each, all drawn at the paper's evaluation density
// (the region scales as √N, like LargeNScenario), plus the parameters
// of the synchronized per-tick churn every network experiences. The
// fleet workload class trades network size for network count — the
// regime of a simulation service driving many deployments at once —
// so M is typically large while each network stays protocol-sized.
type FleetScenario struct {
	// Name identifies the scenario (e.g. "uniform-m16-n250").
	Name string
	// M is the number of independent networks.
	M int
	// N is the node count of each network.
	N int
	// Kind is "uniform" or "clustered", as in LargeNScenario.
	Kind string
	// Side is each network's square region side length.
	Side float64
	// Radius is the maximum transmission radius to run with.
	Radius float64

	// Moves is the number of live nodes each tick jitters.
	Moves int
	// Jitter is the per-coordinate uniform drift amplitude (±Jitter).
	Jitter float64
	// JoinProb and LeaveProb are each tick's probability of one node
	// joining at a uniform position / one random live node departing.
	// With equal probabilities the expected node count is stationary.
	JoinProb, LeaveProb float64
}

// Fleet returns the standard fleet scenario for m networks of n nodes:
// constant paper density, ~1/16 of the nodes drifting R/8 per tick, and
// balanced membership churn. kind is "uniform" or "clustered".
func Fleet(m, n int, kind string) FleetScenario {
	moves := n / 16
	if moves < 1 {
		moves = 1
	}
	return FleetScenario{
		Name:      fmt.Sprintf("%s-m%d-n%d", kind, m, n),
		M:         m,
		N:         n,
		Kind:      kind,
		Side:      LargeNSide(n),
		Radius:    PaperRadius,
		Moves:     moves,
		Jitter:    PaperRadius / 8,
		JoinProb:  0.25,
		LeaveProb: 0.25,
	}
}

// Placements draws the scenario's M initial placements. Each network's
// placement derives from its own decorrelated seed, so a fleet's
// networks are independent draws and network i's placement does not
// depend on M.
func (fs FleetScenario) Placements(seed uint64) [][]geom.Point {
	out := make([][]geom.Point, fs.M)
	for i := range out {
		rng := Rand(Mix(seed, uint64(i)))
		switch fs.Kind {
		case "clustered":
			k := fs.N / 50
			if k < 1 {
				k = 1
			}
			out[i] = Clustered(rng, fs.N, k, fs.Radius/2, fs.Side, fs.Side)
		default:
			out[i] = Uniform(rng, fs.N, fs.Side, fs.Side)
		}
	}
	return out
}

// MemberSize describes one heterogeneous fleet member's shape: its node
// count, its region side (paper density unless overridden) and its tick
// budget per fleet round.
type MemberSize struct {
	// N is the member's node count.
	N int
	// Side is the member's square region side length.
	Side float64
	// Ticks is the member's tick budget per fleet round.
	Ticks int
}

// StragglerMix returns the straggler-skewed heterogeneous fleet shape
// used by the async-vs-lockstep benchmark and the scheduling tests: fast
// light networks of fastN nodes ticking fastTicks times per round, plus
// one heavyweight straggler of slowN nodes ticking once. Under the
// fleet's worker pool the fast members' 4× tick budgets cost only their
// own wall-clock; under a lockstep barrier every fast tick waits for a
// straggler tick. All members sit at paper density.
func StragglerMix(fast, fastN, fastTicks, slowN int) []MemberSize {
	out := make([]MemberSize, 0, fast+1)
	for i := 0; i < fast; i++ {
		out = append(out, MemberSize{N: fastN, Side: LargeNSide(fastN), Ticks: fastTicks})
	}
	return append(out, MemberSize{N: slowN, Side: LargeNSide(slowN), Ticks: 1})
}

// MemberPlacement draws member i's initial uniform placement for a
// heterogeneous fleet: the same decorrelated per-member stream scheme
// as FleetScenario.Placements, at the member's own size.
func MemberPlacement(seed uint64, i int, sz MemberSize) []geom.Point {
	return Uniform(Rand(Mix(seed, uint64(i))), sz.N, sz.Side, sz.Side)
}

// Mix derives a decorrelated per-stream seed from a base seed and a
// stream index, via a splitmix64 finalization round. Fleet members use
// it so every network owns an independent deterministic RNG stream.
func Mix(seed, stream uint64) uint64 {
	z := seed + (stream+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
