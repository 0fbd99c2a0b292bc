package cbtc

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"cbtc/internal/core"
	"cbtc/internal/graph"
	"cbtc/internal/spatial"
	"cbtc/internal/stats"
)

// ErrBadEvent reports a Session event referencing an unknown or departed
// node.
var ErrBadEvent = errors.New("cbtc: invalid session event")

// Session maintains a long-lived, evolving CBTC(α) topology under the
// paper's §4 reconfiguration semantics. Join, Leave and Move events
// repair the topology incrementally: only the nodes whose candidate
// neighborhood the event could have changed — those within maximum
// radius R of the event site — are touched. Every other node keeps its
// state untouched. Each affected observer's event is first classified
// through its §4 state machine (a leaveᵤ/aChangeᵤ that opens an α-gap
// means the node must regrow; anything else is an in-place repair),
// and the affected region is then recomputed to the exact minimal-
// power fixed point. When the affected region is large, the per-node
// recomputations are fanned across the engine's worker pool
// (WithWorkers); the repaired state is identical at every worker count.
//
// Every optimization stack takes the same repair path. Pairwise edge
// removal (§3.3) is local too: redundancy is decided at the apex from its
// own row (Definition 3.5) and the removal policies consult only the
// longest non-redundant edge at each endpoint, so a repair re-decides
// only the edges within one hop of the nodes whose rows it changed.
//
// The maintained fixed point is exact: at any moment the live topology
// equals what a fresh Engine.Run over the current live placement would
// produce, so all of the paper's guarantees (connectivity for α ≤ 5π/6,
// the optimization theorems) hold continuously.
//
// A Session is safe for concurrent use; events are serialized
// internally. Node IDs are stable: departed nodes keep their index and
// are reported as isolated, and Join always appends a fresh ID.
type Session struct {
	eng *Engine
	// workers caps this session's repair parallelism. Standalone
	// sessions inherit the engine's pool; fleet shards are pinned to
	// their plan's inner budget so M concurrent sessions don't
	// multiply into M×GOMAXPROCS goroutines.
	workers int

	mu     sync.Mutex
	pos    []Point
	alive  []bool
	nodes  []core.NodeResult
	recs   []*core.Reconfigurator
	idx    *spatial.Grid // live nodes only; maintained across events
	stats  SessionStats
	cached *Result

	// The maintained topology. Repairs patch exactly the recomputed
	// nodes' arcs into N_α and its symmetrization gpre; under pairwise
	// removal repairPairwise then re-decides the §3.3 rule near the
	// change to patch the final graph g. Snapshot takes copy-on-write
	// clones of these graphs — O(live nodes) slice-header copies —
	// instead of rebuilding the topology and ground-truth G_R from
	// scratch, and later repairs copy only the rows they actually touch.
	pruned    [][]core.Discovery // per-node neighbor lists after op1
	nalpha    *graph.Digraph     // pruned directed relation N_α
	gpre      *graph.Graph       // its symmetrization per the optimization stack
	g         *graph.Graph       // final topology G; gpre itself without pairwise removal
	red       *core.Redundancy   // §3.3 state over gpre; nil without pairwise removal
	gr        *graph.Graph       // G_R over live nodes; departed nodes isolated
	grScratch []int              // reusable max-power neighbor buffer
	rowBuf    []int32            // reusable row copy for repairPairwise

	// live is the maintained live-node count, so LiveCount and Observe
	// never rescan the liveness vector.
	live int

	// O(changed) Observe state: comps tracks live connectivity across
	// repairs (union-find with rebuild-on-split), and radius caches each
	// live node's NodeRadius over g, recomputed only for nodes whose
	// adjacency rows a repair touched. The pend* slices accumulate one
	// repair's delta — filled by depart and patchArcs (an edge diff of
	// gpre, which repairPairwise turns into the diff of g), drained by
	// applyObserveDelta at the end of recompute.
	comps      *graph.LiveComponents
	radius     []float64
	pendDepart []int
	pendAdd    []graph.Edge
	pendRemove []graph.Edge

	// mark/markGen implement allocation-free set membership for the
	// per-event dedup passes (observer unions, recompute id sets): node u
	// is in the current set iff mark[u] == markGen.
	mark    []int
	markGen int

	// Battery state, allocated only for engines built WithBattery.
	// battery[u] is node u's residual energy; Tick drains each live node
	// by drain × p(radius[u]) and clamps at zero. Observe folds the
	// residual moments in one ascending pass — a pure function of
	// (battery, alive), so restored sessions observe bitwise-identically —
	// which stays within the battery tick's cost model: the drain itself
	// is already Θ(live) per tick.
	battery []float64
}

// SessionStats aggregates the reconfiguration activity a Session has
// seen, in the vocabulary of §4.
type SessionStats struct {
	// Joins, Leaves and Moves count the events applied to the session.
	Joins, Leaves, Moves int
	// AngleChanges counts aChangeᵤ(v) observations: a still-reachable
	// neighbor v whose bearing moved.
	AngleChanges int
	// Regrows counts observers whose event opened an α-gap, forcing the
	// node to rerun its growing phase (from p(rad⁻) — Theorem 4.1's
	// restart rule).
	Regrows int
	// Repairs counts observers whose state was fixed in place without a
	// regrow (neighbor inserted, dropped, or shrunk back).
	Repairs int
}

// EventReport describes how one Join/Leave/Move event propagated.
type EventReport struct {
	// AngleChanges, Regrows and Repairs are this event's contribution to
	// the session statistics.
	AngleChanges, Regrows, Repairs int
	// Recomputed lists the nodes whose neighbor state was rebuilt —
	// the event node plus every live node within R of the event site.
	Recomputed []int
}

// NewSession runs CBTC(α) on the placement and returns a Session
// maintaining the result under reconfiguration events. The initial
// computation uses the engine's worker pool. Cancelling ctx aborts it.
func (e *Engine) NewSession(ctx context.Context, nodes []Point) (*Session, error) {
	return e.newSession(ctx, nodes, e.workers)
}

// newSession is NewSession with an explicit worker budget; fleets pin
// their shards' sessions to the shard plan's inner budget.
func (e *Engine) newSession(ctx context.Context, nodes []Point, workers int) (*Session, error) {
	exec, err := core.RunParallel(ctx, nodes, e.prop, e.alpha, workers)
	if err != nil {
		return nil, err
	}
	if e.schedule != nil {
		exec = core.QuantizeTags(exec, e.schedule)
	}
	return e.sessionFromExec(ctx, nodes, exec, workers)
}

// NewProtocolSession builds a Session whose initial topology comes from
// the distributed Hello/Ack protocol of the paper's Figure 1
// (Engine.Simulate's execution path) instead of the exact minimal-power
// oracle. Nodes start from the power levels and discovery rows the
// protocol run actually produced — including the effects of lossy
// channels and AoA noise configured in sim — and all subsequent §4
// reconfiguration events repair that protocol-built state with the
// session's exact oracle machinery. The simulator is deterministic in
// sim.Seed, so the session's whole lifetime is reproducible at any
// worker count. Fleets use this constructor for MemberProtocol members.
func (e *Engine) NewProtocolSession(ctx context.Context, nodes []Point, sim SimOptions) (*Session, error) {
	return e.newProtocolSession(ctx, nodes, sim, e.workers)
}

// newProtocolSession is NewProtocolSession with an explicit worker
// budget. Protocol tags are already drawn from the protocol's discrete
// broadcast schedule, so the engine's quantization schedule — a model of
// exactly that discreteness for oracle tags — is not reapplied.
func (e *Engine) newProtocolSession(ctx context.Context, nodes []Point, sim SimOptions, workers int) (*Session, error) {
	exec, err := e.protoExec(ctx, nodes, sim)
	if err != nil {
		return nil, err
	}
	return e.sessionFromExec(ctx, nodes, exec, workers)
}

// sessionFromExec builds the live session state around a completed
// growing-phase execution — the shared back half of the oracle and
// protocol constructors.
func (e *Engine) sessionFromExec(ctx context.Context, nodes []Point, exec *core.Execution, workers int) (*Session, error) {
	s := &Session{
		eng:     e,
		workers: workers,
		pos:     append([]Point(nil), nodes...),
		alive:   make([]bool, len(nodes)),
		nodes:   exec.Nodes,
		recs:    make([]*core.Reconfigurator, len(nodes)),
		idx:     spatial.New(nodes, e.prop.MaxLinkRadius()),
	}
	if e.battery {
		s.battery = make([]float64, len(nodes))
		for i := range s.battery {
			s.battery[i] = e.batteryCap
		}
	}
	for i := range nodes {
		s.alive[i] = true
		s.recs[i] = core.NewReconfigurator(e.alpha, e.model, exec.Nodes[i].Neighbors)
	}
	s.live = len(nodes)
	if err := s.buildTopology(ctx); err != nil {
		return nil, err
	}
	return s, nil
}

// buildTopology derives every maintained graph from the installed node
// rows and liveness: the per-node prune, N_α and its symmetrization, and
// the ground-truth G_R over the live index with departed nodes isolated,
// then the final graph (deriveTopology). Construction and the restore of
// a checkpoint without a graph section share it.
func (s *Session) buildTopology(ctx context.Context) error {
	e := s.eng
	n := len(s.pos)
	s.pruned = make([][]core.Discovery, n)
	// The per-node prune (coverage arithmetic when shrink-back is on) is
	// embarrassingly parallel, like the oracle itself.
	if err := core.ParallelRange(ctx, n, core.ResolveWorkers(s.workers, n), func(_, u int) {
		s.pruned[u] = e.pruneNeighbors(s.nodes[u].Neighbors)
	}); err != nil {
		return err
	}
	rows := make([][]int32, n)
	for u := range s.pruned {
		rows[u] = core.SuccessorRow(nil, s.pruned[u])
	}
	s.nalpha = graph.NewDigraphFromRows(rows)
	if e.opts.AsymmetricRemoval {
		s.gpre = s.nalpha.MutualSubgraph()
	} else {
		s.gpre = s.nalpha.SymmetricClosure()
	}
	// Reuse the session's own grid — it indexes exactly the live nodes.
	s.gr = core.MaxPowerGraphParallelIndexed(s.pos, e.prop, s.idx, s.workers)
	for u, alive := range s.alive {
		if !alive {
			s.gr.IsolateNode(u)
		}
	}
	return s.deriveTopology(ctx)
}

// deriveTopology derives the final graph and the O(changed) Observe state
// from gpre: under pairwise removal the §3.3 redundancy state and the
// pruned graph (without it g is gpre itself), then the live component
// structure and the per-node radius cache. All of it is a pure function
// of gpre and the positions, so checkpoints serialize none of it and a
// restored session observes byte-identically.
func (s *Session) deriveTopology(ctx context.Context) error {
	s.g = s.gpre
	if s.eng.opts.PairwiseRemoval {
		s.red = core.NewRedundancy(s.gpre, s.pos)
		s.g, _ = s.red.Prune(s.gpre, s.pos, s.eng.opts.PairwisePolicy)
	}
	s.comps = graph.NewLiveComponents(s.g, s.alive)
	n := len(s.pos)
	s.radius = make([]float64, n)
	return core.ParallelRange(ctx, n, core.ResolveWorkers(s.workers, n), func(_, u int) {
		s.radius[u] = graph.NodeRadius(s.g, s.pos, u)
	})
}

// pruneNeighbors applies the engine's per-node-local optimization,
// shrink-back (op1), as BuildTopology does. Pairwise removal acts on the
// symmetrized graph and never goes through here.
func (e *Engine) pruneNeighbors(nbrs []core.Discovery) []core.Discovery {
	if e.opts.ShrinkBack {
		nbrs = core.ShrinkNeighbors(nbrs, e.alpha)
	}
	return nbrs
}

// Join introduces a new node at p — the §4 join scenario. It returns
// the node's ID (stable for the session's lifetime) and a report of the
// repair the event triggered.
func (s *Session) Join(p Point) (int, EventReport) {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.admit(p)

	// The newcomer's beacon is a joinᵤ(id) event at every node that can
	// hear it; §4 always repairs a join in place (insert, then shrink
	// back), so no per-observer classification is needed before the
	// recompute below rebuilds the affected region.
	var rep EventReport
	observers := s.withinRange(id, p)
	rep.Repairs = len(observers)
	s.applyStats(&rep)
	rep.Recomputed = s.recompute(append(observers, id))
	return id, rep
}

// Leave removes a node — the §4 leave scenario (a crash or departure;
// in the protocol, detected by missed beacons). Neighbors whose cone
// coverage loses its last member in some direction regrow; the rest
// repair in place.
func (s *Session) Leave(id int) (EventReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLive(id); err != nil {
		return EventReport{}, err
	}
	site := s.pos[id]
	s.depart(id)

	var rep EventReport
	observers := s.withinRange(id, site)
	s.observeLeave(id, observers, &rep)
	s.applyStats(&rep)
	rep.Recomputed = s.recompute(append(observers, id))
	return rep, nil
}

// Move relocates a live node to p. Observers that still reach the node
// see an aChangeᵤ event (bearing moved), nodes it left behind see a
// leaveᵤ, nodes it approached see a joinᵤ; the moved node itself regrows
// from its new position. Gaps opened by any of these trigger regrows,
// exactly as §4 prescribes.
func (s *Session) Move(id int, p Point) (EventReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.checkLive(id); err != nil {
		return EventReport{}, err
	}
	old := s.relocate(id, p)

	var rep EventReport
	// Observers around either position; the moved node itself regrows.
	observers := s.union(s.withinRange(id, old), s.withinRange(id, p))
	s.observeMove(id, p, observers, &rep)
	rep.Regrows++ // the moved node reruns its growing phase
	s.applyStats(&rep)
	rep.Recomputed = s.recompute(append(observers, id))
	return rep, nil
}

// admit performs the structural half of a join: it allocates the next
// node id, inserts p into every maintained structure, and links the
// newcomer into the incremental ground-truth G_R.
func (s *Session) admit(p Point) int {
	id := len(s.pos)
	s.pos = append(s.pos, p)
	s.alive = append(s.alive, true)
	s.nodes = append(s.nodes, core.NodeResult{})
	s.recs = append(s.recs, nil)
	s.idx.Add(id, p)
	s.live++
	s.pruned = append(s.pruned, nil)
	s.nalpha.Grow(1)
	s.gpre.Grow(1)
	if s.red != nil {
		s.g.Grow(1)
		s.red.Grow(1)
	}
	s.gr.Grow(1)
	s.patchGR(id)
	// The newcomer starts as a singleton component with radius 0; the
	// recompute's edge patches union and refresh it.
	s.comps.Join(id)
	s.radius = append(s.radius, 0)
	if s.battery != nil {
		s.battery = append(s.battery, s.eng.batteryCap)
	}
	s.stats.Joins++
	return id
}

// depart performs the structural half of a leave: liveness, the spatial
// index, and the incremental G_R.
func (s *Session) depart(id int) {
	s.alive[id] = false
	s.idx.Remove(id)
	s.live--
	s.gr.IsolateNode(id)
	// The topology-edge removals themselves are recorded by patchArcs
	// during the recompute; the departure is folded into the component
	// structure alongside them.
	s.pendDepart = append(s.pendDepart, id)
	s.stats.Leaves++
}

// relocate performs the structural half of a move and returns the old
// position.
func (s *Session) relocate(id int, p Point) Point {
	old := s.pos[id]
	s.pos[id] = p
	s.idx.Move(id, p)
	s.gr.IsolateNode(id)
	s.patchGR(id)
	s.stats.Moves++
	return old
}

// observeLeave classifies a leaveᵤ(id) event through each observer's §4
// state machine, accumulating the regrow/repair counts into rep.
// Observers without a state machine yet (nodes admitted earlier in the
// same batch, awaiting their first recompute) never knew id and are
// skipped, exactly as a non-neighbor is.
func (s *Session) observeLeave(id int, observers []int, rep *EventReport) {
	for _, u := range observers {
		rc := s.recs[u]
		if rc == nil || !rc.Has(id) {
			continue
		}
		if rc.Leave(id) == core.ActionRegrow {
			rep.Regrows++
		} else {
			rep.Repairs++
		}
	}
}

// observeMove classifies a move of node id to p at each observer: an
// aChangeᵤ for observers that still reach it, a leaveᵤ for those it
// left, a joinᵤ for those it approached. Observers without a state
// machine yet treat a reachable mover as a joinᵤ.
func (s *Session) observeMove(id int, p Point, observers []int, rep *EventReport) {
	prop := s.eng.prop
	pure := prop.DistancePure()
	r := prop.MaxLinkRadius() * (1 + rangeSlack)
	for _, u := range observers {
		rc := s.recs[u]
		was := rc != nil && rc.Has(id)
		d := s.pos[u].Dist(p)
		// Pure models keep the historical slack-widened distance test;
		// link models re-check the exact per-link range predicate.
		reaches := d <= r && (pure || prop.LinkInRange(u, id, d))
		switch {
		case was && reaches:
			rep.AngleChanges++
			if rc.AngleChange(id, s.pos[u].Bearing(p)) == core.ActionRegrow {
				rep.Regrows++
			} else {
				rep.Repairs++
			}
		case was && !reaches:
			if rc.Leave(id) == core.ActionRegrow {
				rep.Regrows++
			} else {
				rep.Repairs++
			}
		case !was && reaches:
			// A joinᵤ observation: always an in-place repair (§4).
			rep.Repairs++
		}
	}
}

// applyStats folds one event report's classification counts into the
// session totals.
func (s *Session) applyStats(rep *EventReport) {
	s.stats.AngleChanges += rep.AngleChanges
	s.stats.Regrows += rep.Regrows
	s.stats.Repairs += rep.Repairs
}

// patchGR re-links node id in the maintained ground-truth G_R: an edge
// to every live node within maximum-power range of its current position,
// under exactly MaxPowerGraph's distance predicate. The spatial index
// holds exactly the live nodes, so the incremental graph stays equal to
// a fresh MaxPowerGraph with departed nodes isolated.
func (s *Session) patchGR(id int) {
	s.grScratch = core.AppendMaxPowerNeighbors(s.grScratch[:0], s.pos, s.eng.prop, id, s.idx)
	for _, v := range s.grScratch {
		s.gr.AddEdge(id, v)
	}
}

// Snapshot returns the live topology as a Result — the same artifact
// Engine.Run produces, over the session's current placement. Departed
// nodes appear isolated, in both the topology and its ground-truth
// G_R, so Result.PreservesConnectivity keeps its meaning. Snapshots are
// cached between events.
//
// The snapshot is assembled from the maintained graphs — repairs only
// ever rebuilt the recomputed nodes' arcs and, under pairwise removal,
// re-decided the edges around them — and costs copy-on-write clones
// instead of a full topology + G_R rebuild. The error is always nil.
func (s *Session) Snapshot() (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapshotLocked(), nil
}

// snapshotLocked is Snapshot with the session lock already held.
func (s *Session) snapshotLocked() *Result {
	if s.cached != nil {
		return s.cached
	}
	exec := &core.Execution{
		Alpha: s.eng.alpha,
		Model: s.eng.model,
		Pos:   append([]Point(nil), s.pos...),
		Nodes: make([]core.NodeResult, len(s.pos)),
	}
	for u := range exec.Nodes {
		exec.Nodes[u] = core.NodeResult{
			Neighbors: s.pruned[u],
			GrowPower: s.nodes[u].GrowPower,
			Boundary:  s.nodes[u].Boundary,
		}
	}
	g := s.g.Clone()
	topo := &core.Topology{
		Exec:   exec,
		Nalpha: s.nalpha.Clone(),
		G:      g,
		Gpre:   g, // equal when pairwise removal is off, as in BuildTopology
		Opts:   s.eng.opts,
	}
	if s.red != nil {
		topo.Gpre = s.gpre.Clone()
		for u := range s.pos {
			for _, v := range s.gpre.Row(u) {
				if int(v) > u && !s.g.HasEdge(u, int(v)) {
					topo.RemovedRedundant = append(topo.RemovedRedundant, graph.Edge{U: u, V: int(v)})
				}
			}
		}
	}
	// The radius cache already holds NodeRadius(g, pos, u) for every slot
	// (0 for departed nodes), so the snapshot folds it instead of
	// re-deriving the radius/degree tables from scratch — the assembled
	// Result is bitwise identical either way.
	s.cached = newResultFromRadii(s.pos, s.eng.model, topo, s.gr.Clone(), s.radius)
	return s.cached
}

// Stats returns the cumulative reconfiguration statistics.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// TickStats is a cheap aggregate read of a session's live topology —
// the per-tick observation a Fleet accumulates. All metrics range over
// live nodes only: departed nodes contribute neither components nor
// degree mass, unlike Result.Components which counts their isolated
// slots.
type TickStats struct {
	// Live is the number of live nodes.
	Live int
	// Edges is the number of edges of the live topology G.
	Edges int
	// Components is the number of connected components among live nodes.
	Components int
	// AvgDegree and AvgRadius are Table 1's statistics over live nodes.
	AvgDegree, AvgRadius float64
	// Energy is the summed growing-phase power p_{u,α} of live nodes —
	// the §5 energy figure of merit.
	Energy float64
	// Residual is the mean residual battery over live nodes; zero when
	// the engine has no battery model.
	Residual float64
	// EnergyVar is the population variance of residual battery over live
	// nodes — the balance figure of merit of the lifetime workloads: a
	// topology that drains evenly keeps it low. Zero without a battery
	// model.
	EnergyVar float64
}

// TickSeries accumulates a TickStats series through mergeable streaming
// moments — the one aggregate shape shared by fleet members
// (FleetNetworkReport.Series), whole fleets (FleetReport.Series), the
// fleetd HTTP surface and the fleetsim tables, so every layer names the
// same quantities the same way.
type TickSeries struct {
	// Degree, Radius, Components and Energy stream the corresponding
	// TickStats fields, one observation per recorded tick.
	Degree, Radius, Components, Energy stats.Stream
	// Residual and EnergyVar stream the battery fields of TickStats; on
	// engines without a battery model they observe zeros.
	Residual, EnergyVar stats.Stream
}

// Observe folds one tick's stats into the series.
func (ts *TickSeries) Observe(s TickStats) {
	ts.Degree.Add(s.AvgDegree)
	ts.Radius.Add(s.AvgRadius)
	ts.Components.Add(float64(s.Components))
	ts.Energy.Add(s.Energy)
	ts.Residual.Add(s.Residual)
	ts.EnergyVar.Add(s.EnergyVar)
}

// Merge folds another series into this one. Merging in a fixed order
// keeps the combined floating-point moments deterministic.
func (ts *TickSeries) Merge(o *TickSeries) {
	ts.Degree.Merge(&o.Degree)
	ts.Radius.Merge(&o.Radius)
	ts.Components.Merge(&o.Components)
	ts.Energy.Merge(&o.Energy)
	ts.Residual.Merge(&o.Residual)
	ts.EnergyVar.Merge(&o.EnergyVar)
}

// Observe computes the session's current TickStats. The read is
// O(changed): repairs maintain the component structure, the live/edge
// counters and the per-node radius cache, so observing costs the
// maintained counters plus one flat summation over the cached values —
// no BFS, no radius recomputation, no Result assembly. The error is
// always nil.
func (s *Session) Observe() (TickStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.observeLocked(), nil
}

func (s *Session) observeLocked() TickStats {
	ts := TickStats{Live: s.live, Edges: s.g.EdgeCount(), Components: s.comps.Count()}
	// The radius and energy sums fold the cached per-node values in
	// ascending id order, as a from-scratch scan over the snapshot would,
	// so the stats are bitwise identical to the reference — not just
	// close — and stay so across checkpoint/restore.
	for u, alive := range s.alive {
		if !alive {
			continue
		}
		ts.AvgRadius += s.radius[u]
		ts.Energy += s.nodes[u].GrowPower
	}
	if ts.Live > 0 {
		ts.AvgDegree = 2 * float64(ts.Edges) / float64(ts.Live)
		ts.AvgRadius /= float64(ts.Live)
	}
	s.observeBattery(&ts)
	return ts
}

// observeBattery fills the battery fields of ts by folding the residual
// moments over live nodes in ascending order — a pure function of the
// battery and liveness vectors, so a restored session observes
// bitwise-identical values. The Θ(live) pass only exists on battery
// engines, whose ticks already pay Θ(live) for the drain itself.
func (s *Session) observeBattery(ts *TickStats) {
	if s.battery == nil || ts.Live == 0 {
		return
	}
	var sum, sumSq float64
	for u, alive := range s.alive {
		if alive {
			b := s.battery[u]
			sum += b
			sumSq += b * b
		}
	}
	n := float64(ts.Live)
	mean := sum / n
	ts.Residual = mean
	v := sumSq/n - mean*mean
	if v < 0 { // floating-point cancellation on near-equal residuals
		v = 0
	}
	ts.EnergyVar = v
}

// drainLocked charges every live node one tick's transmit energy —
// drain × p(radius), the nominal power of its installed broadcast radius
// scaled by the engine's drain coefficient — clamping batteries at zero.
// It runs inside Tick, after the batch's repairs installed the tick's
// radii and before the observation, so drained energy reflects the
// topology actually transmitted on. A no-battery engine makes it a
// no-op.
func (s *Session) drainLocked() {
	if s.battery == nil || s.eng.batteryDrain == 0 {
		return
	}
	drain := s.eng.batteryDrain
	m := s.eng.model
	for u, alive := range s.alive {
		if !alive {
			continue
		}
		b := s.battery[u]
		if b == 0 {
			continue
		}
		nb := b - drain*m.PowerFor(s.radius[u])
		if nb < 0 {
			nb = 0
		}
		s.battery[u] = nb
	}
}

// Depleted returns the ids of live nodes whose battery has emptied, in
// ascending order — the deaths a lifetime driver converts into Leave
// events. It returns nil on engines without a battery model.
func (s *Session) Depleted() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.depletedLocked()
}

func (s *Session) depletedLocked() []int {
	if s.battery == nil {
		return nil
	}
	var out []int
	for u, alive := range s.alive {
		if alive && s.battery[u] == 0 {
			out = append(out, u)
		}
	}
	return out
}

// Residual returns node id's residual battery energy — the full capacity
// until the first tick drains it, zero once depleted, and the last value
// for departed nodes. Engines without a battery model report 0. Like
// Position it panics on an id the session never allocated.
func (s *Session) Residual(id int) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.pos) {
		panic(fmt.Sprintf("cbtc: session has no node %d (len %d)", id, len(s.pos)))
	}
	if s.battery == nil {
		return 0
	}
	return s.battery[id]
}

// Len returns the number of node slots ever allocated, including
// departed nodes.
func (s *Session) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pos)
}

// LiveCount returns the number of live nodes, from the maintained
// counter — O(1), no scan of the liveness vector.
func (s *Session) LiveCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// NodeRadius returns node id's current transmission radius — the length
// of its longest incident topology edge, 0 for isolated or departed
// nodes — read from the maintained per-node cache. The error is always
// nil. Like Position it panics on an id the session never allocated.
func (s *Session) NodeRadius(id int) (float64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.pos) {
		panic(fmt.Sprintf("cbtc: session has no node %d (len %d)", id, len(s.pos)))
	}
	return s.radius[id], nil
}

// Alive reports whether id identifies a live node.
func (s *Session) Alive(id int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return id >= 0 && id < len(s.alive) && s.alive[id]
}

// Position returns node id's current position (its last position if it
// departed). It panics on an id the session never allocated, matching
// the Graph accessors.
func (s *Session) Position(id int) Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.pos) {
		panic(fmt.Sprintf("cbtc: session has no node %d (len %d)", id, len(s.pos)))
	}
	return s.pos[id]
}

// Engine returns the engine whose configuration the session maintains.
func (s *Session) Engine() *Engine { return s.eng }

// rangeSlack widens the affected-region test slightly beyond R so that
// borderline candidates (admitted by the oracle's own distance
// tolerance) are never missed. Over-inclusion only costs a recompute;
// under-inclusion would let stale state survive.
const rangeSlack = 1e-9

// withinRange returns the live nodes other than self within the
// propagation model's link-radius bound of p, in ascending id order. The
// spatial index — which holds exactly the live nodes — answers the
// radius query; the slightly widened query radius plus the exact
// distance re-check reproduce the full-scan predicate. The bound is the
// affected-region radius: no link — even a favorably-shadowed one — can
// exceed it, so every node whose neighborhood an event could change is
// included.
func (s *Session) withinRange(self int, p Point) []int {
	r := s.eng.prop.MaxLinkRadius() * (1 + rangeSlack)
	out := make([]int, 0, 16)
	for _, v := range s.idx.Within(p, r*(1+spatial.QuerySlack)) {
		if v == self {
			continue
		}
		if s.pos[v].Dist(p) <= r {
			out = append(out, v)
		}
	}
	return out
}

// repairParallelMin is the affected-region size below which a repair
// stays serial: each recomputation costs tens of microseconds, so small
// regions would lose more to goroutine startup than they win.
const repairParallelMin = 16

// recomputed is one node's phase-1 output: everything derivable from the
// read-only session state, computed (possibly concurrently) before the
// serial phase 2 applies it.
type recomputed struct {
	nr     core.NodeResult
	rec    *core.Reconfigurator
	pruned []core.Discovery
}

// recompute rebuilds the exact minimal-power state of every listed node
// over the current live placement and resets its §4 state machine. It
// returns the ids actually recomputed (duplicates removed, in input
// order) and invalidates the snapshot cache.
//
// The rebuild runs in two phases. Phase 1 computes each node's new
// state — the RunNode cone test, its §4 state machine, and the pruned
// neighbor list — against read-only session state, fanned across the
// engine's worker pool when the affected region is large (a Move at
// n=10k touches every node within R of two sites). Phase 2 serially
// installs the results, patches the recomputed nodes' arcs into the
// maintained topology graphs and, under pairwise removal, re-decides the
// final graph around them (repairPairwise).
func (s *Session) recompute(ids []int) []int {
	s.newMarkEpoch()
	out := make([]int, 0, len(ids))
	live := make([]int, 0, len(ids))
	for _, u := range ids {
		if s.marked(u) {
			continue
		}
		out = append(out, u)
		if s.alive[u] {
			live = append(live, u)
		}
	}

	workers := 1
	if len(live) >= repairParallelMin && s.workers != 1 {
		workers = core.ResolveWorkers(s.workers, len(live)*parallelGrain)
	}
	results := make([]recomputed, len(live))
	runners := make([]core.NodeRunner, workers)
	// ctx is inert: repairs are short, lock-held critical sections with
	// no caller-supplied context to honor.
	_ = core.ParallelRange(context.Background(), len(live), workers, func(w, i int) {
		u := live[i]
		nr := runners[w].RunNode(s.pos, s.alive, s.eng.prop, s.eng.alpha, u, s.idx)
		if s.eng.schedule != nil {
			nr.Neighbors = core.QuantizeNeighbors(nr.Neighbors, s.eng.schedule)
		}
		results[i] = recomputed{
			nr:     nr,
			rec:    core.NewReconfigurator(s.eng.alpha, s.eng.model, nr.Neighbors),
			pruned: s.eng.pruneNeighbors(nr.Neighbors),
		}
	})

	for i, u := range live {
		s.nodes[u] = results[i].nr
		s.recs[u] = results[i].rec
		s.patchArcs(u, results[i].pruned)
	}
	for _, u := range out {
		if s.alive[u] {
			continue
		}
		s.nodes[u] = core.NodeResult{}
		s.recs[u] = nil
		s.patchArcs(u, nil)
	}
	if s.red != nil {
		s.repairPairwise(out)
	}
	s.applyObserveDelta(live)
	s.cached = nil
	return out
}

// repairPairwise turns one repair's edge diff of gpre into the edge diff
// of the final graph g, re-deciding the §3.3 rule only where it can have
// changed. Let C be the nodes whose gpre row changed: the recomputed
// nodes (a moved node's neighbors are among them) plus the endpoints of
// the gpre diff. Apex redundancy can change only at nodes in C, the
// longest non-redundant edge only at nodes in C ∪ N(C), and an edge's
// keep/drop decision only when one of its endpoints is in that set. So
// the pass re-detects C, re-measures C ∪ N(C), and patches every g row in
// C ∪ N(C) to the decision over its gpre row; afterwards the pend* edge
// lists hold the diff of g, which is what applyObserveDelta folds.
func (s *Session) repairPairwise(recomputed []int) {
	s.newMarkEpoch()
	var touched []int
	add := func(u int) {
		if !s.marked(u) {
			touched = append(touched, u)
		}
	}
	for _, u := range recomputed {
		add(u)
	}
	for _, lst := range [2][]graph.Edge{s.pendAdd, s.pendRemove} {
		for _, e := range lst {
			add(e.U)
			add(e.V)
		}
	}
	changed := len(touched)
	for _, u := range touched[:changed] {
		s.red.Detect(s.gpre, s.pos, u)
		for _, v := range s.gpre.Row(u) {
			add(int(v))
		}
	}
	for _, u := range touched {
		s.red.Measure(s.gpre, s.pos, u)
	}

	s.pendAdd, s.pendRemove = s.pendAdd[:0], s.pendRemove[:0]
	policy := s.eng.opts.PairwisePolicy
	for _, u := range touched {
		// Edges that left gpre leave g; the row is copied because the
		// removals mutate it.
		s.rowBuf = append(s.rowBuf[:0], s.g.Row(u)...)
		for _, v := range s.rowBuf {
			if !s.gpre.HasEdge(u, int(v)) && s.g.RemoveEdge(u, int(v)) {
				s.pendRemove = append(s.pendRemove, graph.NewEdge(u, int(v)))
			}
		}
		for _, v := range s.gpre.Row(u) {
			if s.red.Drops(policy, s.pos, u, int(v)) {
				if s.g.RemoveEdge(u, int(v)) {
					s.pendRemove = append(s.pendRemove, graph.NewEdge(u, int(v)))
				}
			} else if s.g.AddEdge(u, int(v)) {
				s.pendAdd = append(s.pendAdd, graph.NewEdge(u, int(v)))
			}
		}
	}
}

// applyObserveDelta folds one finished repair into the O(changed)
// Observe state: the pending departures and the exact edge diff the arc
// patches recorded go into the maintained component structure, and the
// per-node radius cache is refreshed for exactly the nodes whose
// adjacency rows changed — the recomputed live nodes plus the live
// endpoints of diffed edges (an edge patch can touch a neighbor outside
// the recompute set through the symmetric closure).
func (s *Session) applyObserveDelta(recomputed []int) {
	s.comps.Apply(s.g, graph.Delta{
		Departed: s.pendDepart,
		Added:    s.pendAdd,
		Removed:  s.pendRemove,
	})
	s.newMarkEpoch()
	for _, u := range recomputed {
		s.marked(u)
		s.radius[u] = graph.NodeRadius(s.g, s.pos, u)
	}
	refresh := func(u int) {
		if s.alive[u] && !s.marked(u) {
			s.radius[u] = graph.NodeRadius(s.g, s.pos, u)
		}
	}
	for _, e := range s.pendAdd {
		refresh(e.U)
		refresh(e.V)
	}
	for _, e := range s.pendRemove {
		refresh(e.U)
		refresh(e.V)
	}
	for _, u := range s.pendDepart {
		s.radius[u] = 0
	}
	s.pendDepart = s.pendDepart[:0]
	s.pendAdd = s.pendAdd[:0]
	s.pendRemove = s.pendRemove[:0]
}

// parallelGrain scales a repair's item count when resolving workers: one
// RunNode is orders of magnitude more work than one index of the
// oracle's node range, so ResolveWorkers' stay-serial floor (tuned for
// the latter) would otherwise keep mid-sized repairs on one core.
const parallelGrain = 64

// patchArcs replaces node u's outgoing arcs in the maintained N_α with
// the new pruned neighbor set and patches the symmetric graph gpre edge
// by edge. Processing every recomputed node once, in any order, leaves both
// graphs exactly as a from-scratch rebuild over the new state would.
func (s *Session) patchArcs(u int, pruned []core.Discovery) {
	mutual := s.eng.opts.AsymmetricRemoval
	next := make(map[int]bool, len(pruned))
	for _, nb := range pruned {
		next[nb.ID] = true
	}
	for _, nb := range s.pruned[u] {
		v := nb.ID
		if next[v] {
			continue
		}
		s.nalpha.RemoveArc(u, v)
		// A closure edge survives the arc removal iff the reverse arc
		// remains; a mutual edge never does.
		if mutual || !s.nalpha.HasArc(v, u) {
			if s.gpre.RemoveEdge(u, v) {
				s.pendRemove = append(s.pendRemove, graph.NewEdge(u, v))
			}
		}
	}
	for _, nb := range pruned {
		v := nb.ID
		if s.nalpha.HasArc(u, v) {
			continue
		}
		s.nalpha.AddArc(u, v)
		if !mutual || s.nalpha.HasArc(v, u) {
			if s.gpre.AddEdge(u, v) {
				s.pendAdd = append(s.pendAdd, graph.NewEdge(u, v))
			}
		}
	}
	s.pruned[u] = pruned
}

func (s *Session) checkLive(id int) error {
	if id < 0 || id >= len(s.pos) {
		return fmt.Errorf("%w: node %d does not exist", ErrBadEvent, id)
	}
	if !s.alive[id] {
		return fmt.Errorf("%w: node %d already departed", ErrBadEvent, id)
	}
	return nil
}

// newMarkEpoch starts a fresh membership set over the session's current
// id space; marked admits each id into it exactly once.
func (s *Session) newMarkEpoch() {
	s.markGen++
	if len(s.mark) < len(s.pos) {
		s.mark = append(s.mark, make([]int, len(s.pos)-len(s.mark))...)
	}
}

// marked reports whether u is already in the current epoch's set, adding
// it if not.
func (s *Session) marked(u int) bool {
	if s.mark[u] == s.markGen {
		return true
	}
	s.mark[u] = s.markGen
	return false
}

// union merges two id lists preserving first-occurrence order, deduping
// through the session's mark stamps instead of a per-call map.
func (s *Session) union(a, b []int) []int {
	s.newMarkEpoch()
	out := make([]int, 0, len(a)+len(b))
	for _, lst := range [2][]int{a, b} {
		for _, v := range lst {
			if !s.marked(v) {
				out = append(out, v)
			}
		}
	}
	return out
}
