package main

import (
	"math/rand/v2"
	"strconv"
	"strings"

	"cbtc"
	"cbtc/internal/workload"
)

// wireEvent is one event as fleetd ingests it.
type wireEvent struct {
	Op  string
	Net int
	ID  int
	X   float64
	Y   float64
}

func (e wireEvent) appendJSON(b *strings.Builder) {
	b.WriteString(`{"op":"`)
	b.WriteString(e.Op)
	b.WriteString(`","net":`)
	b.WriteString(strconv.Itoa(e.Net))
	if e.Op != "join" {
		b.WriteString(`,"id":`)
		b.WriteString(strconv.Itoa(e.ID))
	}
	if e.Op != "leave" {
		b.WriteString(`,"x":`)
		b.WriteString(strconv.FormatFloat(e.X, 'g', -1, 64))
		b.WriteString(`,"y":`)
		b.WriteString(strconv.FormatFloat(e.Y, 'g', -1, 64))
	}
	b.WriteString("}\n")
}

func (e wireEvent) event() cbtc.Event {
	switch e.Op {
	case "join":
		return cbtc.JoinEvent(cbtc.Pt(e.X, e.Y))
	case "leave":
		return cbtc.LeaveEvent(e.ID)
	default:
		return cbtc.MoveEvent(e.ID, cbtc.Pt(e.X, e.Y))
	}
}

// netModel is the generator's model of one network: every node's
// position and liveness, mirroring the session's id assignment (a join
// takes the next id; ids are never reused).
type netModel struct {
	pos   []cbtc.Point
	live  []int       // live ids, in no particular order
	where map[int]int // id → index in live
}

func newNetModel(placement []cbtc.Point) *netModel {
	m := &netModel{pos: append([]cbtc.Point(nil), placement...), where: make(map[int]int, len(placement))}
	for id := range placement {
		m.where[id] = len(m.live)
		m.live = append(m.live, id)
	}
	return m
}

func (m *netModel) join(p cbtc.Point) {
	id := len(m.pos)
	m.pos = append(m.pos, p)
	m.where[id] = len(m.live)
	m.live = append(m.live, id)
}

func (m *netModel) leave(id int) {
	i := m.where[id]
	last := m.live[len(m.live)-1]
	m.live[i] = last
	m.where[last] = i
	m.live = m.live[:len(m.live)-1]
	delete(m.where, id)
}

// generator draws fleetd traffic in workload.Fleet's proportions: per
// tick, sc.Moves drift moves of ±sc.Jitter per coordinate plus a join
// and a leave with probabilities sc.JoinProb and sc.LeaveProb. A burst
// draws each event independently in those proportions, so the mix
// holds at any burst size, on a uniformly random network.
type generator struct {
	sc     workload.FleetScenario
	rng    *rand.Rand
	nets   []*netModel
	pJoin  float64
	pLeave float64
}

func newGenerator(sc workload.FleetScenario, seed uint64) *generator {
	g := &generator{sc: sc, rng: workload.Rand(workload.Mix(seed, 1<<32))}
	for _, p := range sc.Placements(seed) {
		g.nets = append(g.nets, newNetModel(p))
	}
	total := float64(sc.Moves) + sc.JoinProb + sc.LeaveProb
	g.pJoin = sc.JoinProb / total
	g.pLeave = sc.LeaveProb / total
	return g
}

// burst draws size events, each valid against the model as the earlier
// events of the burst leave it, and applies them to the model.
func (g *generator) burst(size int) []wireEvent {
	out := make([]wireEvent, 0, size)
	for len(out) < size {
		net := g.rng.IntN(len(g.nets))
		m := g.nets[net]
		u := g.rng.Float64()
		switch {
		case u < g.pJoin:
			p := cbtc.Pt(g.rng.Float64()*g.sc.Side, g.rng.Float64()*g.sc.Side)
			m.join(p)
			out = append(out, wireEvent{Op: "join", Net: net, X: p.X, Y: p.Y})
		case u < g.pJoin+g.pLeave && len(m.live) > 1:
			id := m.live[g.rng.IntN(len(m.live))]
			m.leave(id)
			out = append(out, wireEvent{Op: "leave", Net: net, ID: id})
		default:
			id := m.live[g.rng.IntN(len(m.live))]
			q := m.pos[id]
			q.X = clamp(q.X+(g.rng.Float64()*2-1)*g.sc.Jitter, g.sc.Side)
			q.Y = clamp(q.Y+(g.rng.Float64()*2-1)*g.sc.Jitter, g.sc.Side)
			m.pos[id] = q
			out = append(out, wireEvent{Op: "move", Net: net, ID: id, X: q.X, Y: q.Y})
		}
	}
	return out
}

func clamp(v, hi float64) float64 { return min(max(v, 0), hi) }
