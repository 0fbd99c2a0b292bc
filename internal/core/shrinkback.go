package core

import (
	"sort"

	"cbtc/internal/geom"
)

// ShrinkBack applies the paper's first optimization (§3.1, Theorem 3.1):
// after the growing phase, each node successively drops the neighbors
// tagged with the highest discovery power, as long as dropping the whole
// tag level leaves the α-cone coverage unchanged. Boundary nodes — which
// finished broadcasting at maximum power — are the ones that typically
// shrink; for interior nodes the final power level closed the last gap
// and cannot be dropped.
//
// The result is a new Execution whose neighbor sets are N^s_α(u);
// GrowPower is preserved because reconfiguration beacons must still use
// the basic algorithm's power (§4).
func ShrinkBack(e *Execution) *Execution {
	out := e.Clone()
	for u := range out.Nodes {
		out.Nodes[u].Neighbors = ShrinkNeighbors(out.Nodes[u].Neighbors, e.Alpha)
	}
	return out
}

// ShrinkNeighbors performs the shrink-back operation for a single node:
// it keeps the minimal prefix of discovery-power levels whose α-coverage
// equals the coverage of the full set. The distributed protocol uses it
// directly when computing (possibly incorrectly reduced) beacon powers.
func ShrinkNeighbors(neighbors []Discovery, alpha float64) []Discovery {
	if len(neighbors) == 0 {
		return neighbors
	}
	sorted := append([]Discovery(nil), neighbors...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Power != sorted[j].Power {
			return sorted[i].Power < sorted[j].Power
		}
		if sorted[i].Dist != sorted[j].Dist {
			return sorted[i].Dist < sorted[j].Dist
		}
		return sorted[i].ID < sorted[j].ID
	})

	allDirs := make([]float64, len(sorted))
	for i, nb := range sorted {
		allDirs[i] = nb.Dir
	}
	full := geom.Coverage(allDirs, alpha)

	// Find the minimal power-level prefix with identical coverage. Levels
	// are contiguous runs of equal Power; binary search does not apply
	// because coverage equality is not monotone in arbitrary prefixes,
	// but it is monotone in whole levels: walk levels from the front.
	i := 0
	for i < len(sorted) {
		levelEnd := i + 1
		for levelEnd < len(sorted) && samePower(sorted[levelEnd].Power, sorted[i].Power) {
			levelEnd++
		}
		if geom.Coverage(allDirs[:levelEnd], alpha).Equal(full, 10*geom.Eps) {
			return sorted[:levelEnd]
		}
		i = levelEnd
	}
	return sorted
}

// QuantizeTags returns an execution whose discovery-power tags are
// rounded up to the given broadcast schedule (e.g. the doubling schedule
// of Figure 1). The oracle tags each neighbor with its exact minimal
// power; a real protocol run only knows the discrete power level of the
// round that discovered the neighbor. Quantizing the oracle's tags
// reproduces the protocol's coarser shrink-back granularity without
// running the simulator — the evaluation harness uses it to match the
// paper's setup. Tags above the last schedule entry are clamped to it.
func QuantizeTags(e *Execution, schedule []float64) *Execution {
	out := e.Clone()
	for u := range out.Nodes {
		for i, nb := range out.Nodes[u].Neighbors {
			out.Nodes[u].Neighbors[i].Power = quantizeUp(nb.Power, schedule)
		}
	}
	return out
}

// QuantizeNeighbors is the per-node form of QuantizeTags: it returns a
// copy of the neighbor list with discovery-power tags rounded up to the
// schedule. Incremental reconfiguration uses it to keep regrown nodes on
// the same tag granularity as the initial execution.
func QuantizeNeighbors(neighbors []Discovery, schedule []float64) []Discovery {
	out := append([]Discovery(nil), neighbors...)
	for i, nb := range out {
		out[i].Power = quantizeUp(nb.Power, schedule)
	}
	return out
}

func quantizeUp(p float64, schedule []float64) float64 {
	for _, s := range schedule {
		if s >= p {
			return s
		}
	}
	if len(schedule) > 0 {
		return schedule[len(schedule)-1]
	}
	return p
}

func samePower(a, b float64) bool {
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	scale := a
	if b > a {
		scale = b
	}
	return diff <= distTieTol*(1+scale)
}
