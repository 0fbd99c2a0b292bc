// Package scenario runs scripted dynamic experiments against the
// distributed protocol: a JSON description of a placement plus a
// timeline of crash/move/add events, with checkpoints that compare the
// live topology against the ground-truth maximum-power graph. It powers
// cmd/dynsim and makes §4 reconfiguration experiments reproducible from
// a data file.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/netsim"
	"cbtc/internal/proto"
	"cbtc/internal/radio"
)

// ErrBadScenario reports an invalid scenario description.
var ErrBadScenario = errors.New("scenario: invalid scenario")

// Op is an event kind in the scenario timeline.
type Op string

// Supported event operations.
const (
	// OpCrash crash-fails a node permanently.
	OpCrash Op = "crash"
	// OpMove teleports a node to (X, Y).
	OpMove Op = "move"
	// OpAdd introduces a brand-new node at (X, Y).
	OpAdd Op = "add"
	// OpCheck records a checkpoint: live topology vs ground truth.
	OpCheck Op = "check"
)

// Event is one timeline entry.
type Event struct {
	// At is the simulation time of the event.
	At float64 `json:"at"`
	// Op selects the operation.
	Op Op `json:"op"`
	// Node is the target node for crash/move.
	Node int `json:"node,omitempty"`
	// X, Y are the coordinates for move/add.
	X float64 `json:"x,omitempty"`
	Y float64 `json:"y,omitempty"`
	// Label annotates checkpoints in the report.
	Label string `json:"label,omitempty"`
}

// Scenario is a complete dynamic experiment description.
type Scenario struct {
	// Alpha is the cone angle; 0 means 5π/6.
	Alpha float64 `json:"alpha,omitempty"`
	// MaxRadius is R. Required.
	MaxRadius float64 `json:"maxRadius"`
	// Nodes holds the initial placement as [x, y] pairs.
	Nodes [][2]float64 `json:"nodes"`
	// BeaconPeriod and LeaveTimeout configure the NDP (0 = defaults).
	BeaconPeriod float64 `json:"beaconPeriod,omitempty"`
	LeaveTimeout float64 `json:"leaveTimeout,omitempty"`
	// Settle is how long to run before the first event (growing phase
	// convergence); 0 means 100.
	Settle float64 `json:"settle,omitempty"`
	// RunUntil is the total simulation horizon; 0 means last event +
	// 300.
	RunUntil float64 `json:"runUntil,omitempty"`
	// Seed drives simulator randomness.
	Seed uint64 `json:"seed,omitempty"`
	// DropProb optionally makes the channel lossy.
	DropProb float64 `json:"dropProb,omitempty"`
	// Events is the timeline, in any order (sorted by At before running).
	Events []Event `json:"events"`
}

// Parse reads and validates a JSON scenario.
func Parse(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadScenario, err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks structural consistency, including node references
// against the evolving node count (adds grow it).
func (s *Scenario) Validate() error {
	if s.MaxRadius <= 0 {
		return fmt.Errorf("%w: maxRadius must be positive", ErrBadScenario)
	}
	if len(s.Nodes) == 0 {
		return fmt.Errorf("%w: need at least one node", ErrBadScenario)
	}
	count := len(s.Nodes)
	events := s.SortedEvents()
	for i, ev := range events {
		if ev.At < 0 {
			return fmt.Errorf("%w: event %d has negative time", ErrBadScenario, i)
		}
		switch ev.Op {
		case OpCrash:
			if ev.Node < 0 || ev.Node >= count {
				return fmt.Errorf("%w: event %d crashes unknown node %d", ErrBadScenario, i, ev.Node)
			}
		case OpMove:
			if ev.Node < 0 || ev.Node >= count {
				return fmt.Errorf("%w: event %d moves unknown node %d", ErrBadScenario, i, ev.Node)
			}
		case OpAdd:
			count++
		case OpCheck:
			// always fine
		default:
			return fmt.Errorf("%w: event %d has unknown op %q", ErrBadScenario, i, ev.Op)
		}
	}
	return nil
}

// SortedEvents returns the timeline ordered by event time (stable for
// equal times), leaving the scenario unmodified.
func (s *Scenario) SortedEvents() []Event {
	events := append([]Event(nil), s.Events...)
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events
}

// Checkpoint is the observation recorded by a check event (and by the
// implicit final check).
type Checkpoint struct {
	// At is the checkpoint time.
	At float64
	// Label echoes the event label ("final" for the implicit check).
	Label string
	// Components is the live topology's component count.
	Components int
	// Edges is the live topology's edge count.
	Edges int
	// PartitionOK reports whether the live topology induces the same
	// component partition as the ground-truth G_R over current positions
	// (crashed nodes isolated).
	PartitionOK bool
}

// Report is the outcome of running a scenario.
type Report struct {
	Checkpoints []Checkpoint
	// Joins, Leaves, AngleChanges, Regrows aggregate the reconfiguration
	// events observed across all nodes.
	Joins, Leaves, AngleChanges, Regrows int
	// FinalOK is the PartitionOK of the implicit final checkpoint.
	FinalOK bool
}

// Run executes the scenario and returns its report.
func Run(s *Scenario) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m := radio.Default(s.MaxRadius)
	pos := make([]geom.Point, len(s.Nodes))
	for i, xy := range s.Nodes {
		pos[i] = geom.Pt(xy[0], xy[1])
	}
	simOpts := netsim.DefaultOptions(m)
	simOpts.Seed = s.Seed
	simOpts.DropProb = s.DropProb

	cfg := proto.Config{
		Alpha:        s.Alpha,
		EnableNDP:    true,
		BeaconPeriod: s.BeaconPeriod,
		LeaveTimeout: s.LeaveTimeout,
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = core.AlphaConnectivity
	}
	rt, err := proto.Start(pos, simOpts, cfg)
	if err != nil {
		return nil, err
	}

	settle := s.Settle
	if settle == 0 {
		settle = 100
	}
	report := &Report{}
	events := s.SortedEvents()
	for _, ev := range events {
		ev := ev
		at := settle + ev.At
		switch ev.Op {
		case OpCrash:
			rt.Sim.ScheduleAt(at, func() { rt.Sim.Crash(ev.Node) })
		case OpMove:
			rt.Sim.ScheduleAt(at, func() { rt.Sim.MoveNode(ev.Node, geom.Pt(ev.X, ev.Y)) })
		case OpAdd:
			rt.Sim.ScheduleAt(at, func() { rt.AddNode(geom.Pt(ev.X, ev.Y)) })
		case OpCheck:
			rt.Sim.ScheduleAt(at, func() {
				report.Checkpoints = append(report.Checkpoints, observe(rt, at, ev.Label))
			})
		}
	}

	horizon := s.RunUntil
	if horizon == 0 {
		last := 0.0
		if len(events) > 0 {
			last = events[len(events)-1].At
		}
		horizon = settle + last + 300
	}
	rt.Sim.Run(horizon)

	final := observe(rt, horizon, "final")
	report.Checkpoints = append(report.Checkpoints, final)
	report.FinalOK = final.PartitionOK
	for _, n := range rt.Nodes {
		report.Joins += n.Joins
		report.Leaves += n.Leaves
		report.AngleChanges += n.AngleChanges
		report.Regrows += n.Regrows
	}
	return report, nil
}

func observe(rt *proto.Runtime, at float64, label string) Checkpoint {
	live := rt.TableGraph()
	return Checkpoint{
		At:          at,
		Label:       label,
		Components:  graph.ComponentCount(live),
		Edges:       live.EdgeCount(),
		PartitionOK: graph.SamePartition(groundTruth(rt), live),
	}
}

// groundTruth is G_R over live positions with crashed nodes isolated.
func groundTruth(rt *proto.Runtime) *graph.Graph {
	pos := make([]geom.Point, rt.Sim.Len())
	for i := range pos {
		pos[i] = rt.Sim.Position(i)
	}
	gr := core.MaxPowerGraph(pos, rt.Sim.Model(), nil, 1)
	for u := 0; u < gr.Len(); u++ {
		if rt.Sim.Crashed(u) {
			gr.IsolateNode(u)
		}
	}
	return gr
}
