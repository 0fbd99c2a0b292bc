package cbtc

import "fmt"

// EventKind discriminates Session events for batched application.
type EventKind uint8

const (
	// EventJoin introduces a new node at Event.Pos.
	EventJoin EventKind = iota + 1
	// EventLeave removes node Event.ID.
	EventLeave
	// EventMove relocates node Event.ID to Event.Pos.
	EventMove
)

// String implements fmt.Stringer.
func (k EventKind) String() string {
	switch k {
	case EventJoin:
		return "join"
	case EventLeave:
		return "leave"
	case EventMove:
		return "move"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one Session reconfiguration event, the element of
// Session.ApplyBatch. Use JoinEvent, LeaveEvent and MoveEvent to
// construct values.
type Event struct {
	// Kind selects the event type.
	Kind EventKind
	// ID is the target node for Leave and Move events. Join events
	// ignore it: the session assigns the next free id and reports it in
	// BatchReport.JoinIDs.
	ID int
	// Pos is the position for Join and Move events.
	Pos Point
}

// JoinEvent returns an Event introducing a new node at p.
func JoinEvent(p Point) Event { return Event{Kind: EventJoin, Pos: p} }

// LeaveEvent returns an Event removing node id.
func LeaveEvent(id int) Event { return Event{Kind: EventLeave, ID: id} }

// MoveEvent returns an Event relocating node id to p.
func MoveEvent(id int, p Point) Event { return Event{Kind: EventMove, ID: id, Pos: p} }

// BatchReport describes how one ApplyBatch call propagated. The
// embedded EventReport aggregates the classification counts of every
// event in the batch; Recomputed lists each affected node once, even
// when several events touched its neighborhood.
type BatchReport struct {
	EventReport
	// JoinIDs holds the ids assigned to the batch's Join events, in
	// event order.
	JoinIDs []int
}

// ApplyBatch applies a burst of Join/Leave/Move events as one repair:
// the structural changes (positions, liveness, the spatial index, the
// incremental ground-truth G_R) are applied strictly in event order,
// the affected regions of all events are unioned, and a single
// recompute rebuilds the union to the exact minimal-power fixed point —
// one region pass and one snapshot invalidation instead of one per
// event. This is the natural shape of mobility traces (many nodes
// drifting per tick), where the per-event affected regions overlap
// heavily and the shared recompute does the work once.
//
// The resulting topology — N_α, G and the ground-truth G_R — is
// identical, edge for edge, to applying the same events singly through
// Join/Leave/Move, and therefore to a fresh Engine.Run over the final
// live placement. Only the classification statistics may differ from
// the one-by-one path: a batch classifies every event against the §4
// state machines as they stood when that event was applied, without the
// intermediate recomputes a sequential application would run between
// events.
//
// Validation is all-or-nothing: every Leave and Move must target a node
// live at the point its event applies (accounting for earlier joins and
// leaves in the same batch), or ApplyBatch returns an ErrBadEvent error
// before touching any session state. An empty batch is a no-op.
func (s *Session) ApplyBatch(events []Event) (BatchReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyBatchLocked(events)
}

// Tick is the fleet-facing tick hook: it applies one batch of events
// and observes the repaired topology in the same critical section, so a
// synchronized fleet tick costs one lock acquisition and the observed
// TickStats cannot interleave with another driver's events. Applying an
// empty batch is a valid tick — the observation still runs. On engines
// built WithBattery the tick also charges every live node one tick's
// transmit energy (drain × p(radius), at the radius the batch's repairs
// just installed) before observing, so the observed residual stats
// reflect this tick's spend.
//
// The only error is a validation error, and then nothing is applied
// (ApplyBatch's all-or-nothing contract).
func (s *Session) Tick(events []Event) (BatchReport, TickStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rep, err := s.applyBatchLocked(events)
	if err != nil {
		return BatchReport{}, TickStats{}, err
	}
	s.drainLocked()
	return rep, s.observeLocked(), nil
}

func (s *Session) applyBatchLocked(events []Event) (BatchReport, error) {
	var rep BatchReport
	if len(events) == 0 {
		return rep, nil
	}
	if err := s.validateBatch(events); err != nil {
		return BatchReport{}, err
	}

	// Apply the structural changes in event order, classifying each
	// event's observers as the single-event paths do, and record every
	// site whose R-neighborhood the batch disturbed: join positions,
	// leave positions, and both endpoints of each move.
	ids := make([]int, 0, len(events))
	sites := make([]Point, 0, 2*len(events))
	for _, ev := range events {
		switch ev.Kind {
		case EventJoin:
			id := s.admit(ev.Pos)
			rep.JoinIDs = append(rep.JoinIDs, id)
			rep.Repairs += len(s.withinRange(id, ev.Pos))
			ids = append(ids, id)
			sites = append(sites, ev.Pos)
		case EventLeave:
			site := s.pos[ev.ID]
			s.depart(ev.ID)
			s.observeLeave(ev.ID, s.withinRange(ev.ID, site), &rep.EventReport)
			ids = append(ids, ev.ID)
			sites = append(sites, site)
		case EventMove:
			old := s.relocate(ev.ID, ev.Pos)
			observers := s.union(s.withinRange(ev.ID, old), s.withinRange(ev.ID, ev.Pos))
			s.observeMove(ev.ID, ev.Pos, observers, &rep.EventReport)
			rep.Regrows++ // the moved node reruns its growing phase
			ids = append(ids, ev.ID)
			sites = append(sites, old, ev.Pos)
		}
	}
	s.applyStats(&rep.EventReport)

	// One recompute over the union of affected regions. Non-event nodes
	// never move, so "within R of a disturbed site" is time-invariant
	// for them and the final spatial index answers it exactly; event
	// nodes are recomputed unconditionally.
	affected := ids
	for _, p := range sites {
		affected = append(affected, s.withinRange(-1, p)...)
	}
	rep.Recomputed = s.recompute(affected)
	return rep, nil
}

// ValidateBatch checks whether events would pass ApplyBatch's
// all-or-nothing validation against the session's current state, without
// applying anything. It returns nil for a valid batch and an ErrBadEvent
// error otherwise. External ingestion drivers (Fleet.TickEvents,
// cmd/fleetd) use it to reject bad traffic before committing a tick; the
// answer is only binding while no other goroutine mutates the session in
// between.
func (s *Session) ValidateBatch(events []Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.validateBatch(events)
}

// validateBatch checks every event against the liveness state projected
// through the batch's earlier events, without mutating the session.
func (s *Session) validateBatch(events []Event) error {
	next := len(s.pos)
	overlay := make(map[int]bool) // projected liveness where it differs
	for i, ev := range events {
		switch ev.Kind {
		case EventJoin:
			overlay[next] = true
			next++
		case EventLeave, EventMove:
			id := ev.ID
			if id < 0 || id >= next {
				return fmt.Errorf("%w: batch event %d (%s): node %d does not exist", ErrBadEvent, i, ev.Kind, id)
			}
			live, ok := overlay[id]
			if !ok {
				live = id < len(s.alive) && s.alive[id]
			}
			if !live {
				return fmt.Errorf("%w: batch event %d (%s): node %d already departed", ErrBadEvent, i, ev.Kind, id)
			}
			if ev.Kind == EventLeave {
				overlay[id] = false
			}
		default:
			return fmt.Errorf("%w: batch event %d has unknown kind %d", ErrBadEvent, i, uint8(ev.Kind))
		}
	}
	return nil
}
