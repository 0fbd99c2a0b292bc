package cbtc

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"sync/atomic"
	"testing"

	"cbtc/internal/codec"
	"cbtc/internal/workload"
)

// checkpointStacks are the option stacks the durability layer is gated
// on: the basic algorithm, the per-node-local optimizations, the
// pairwise stack, the asymmetric-removal regime, and tag quantization.
var checkpointStacks = []struct {
	name string
	opts []Option
}{
	{"basic", []Option{WithMaxRadius(500)}},
	{"shrink-back", []Option{WithMaxRadius(500), WithShrinkBack()}},
	{"all-ops", []Option{WithMaxRadius(500), WithAllOptimizations()}},
	{"asym-2pi3", []Option{WithMaxRadius(500), WithAlpha(AlphaAsymmetric), WithShrinkBack(), WithAsymmetricRemoval()}},
	{"quantized", []Option{WithMaxRadius(500), WithShrinkBack(), WithShrinkBackSchedule(1.5)}},
}

// requireSessionsIdentical asserts two sessions expose identical state:
// same snapshot graphs (G and the ground-truth G_R), radii, powers,
// liveness, statistics, and identical maintained internal graphs
// including N_α and the graph before pairwise removal.
func requireSessionsIdentical(t *testing.T, a, b *Session) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("id space %d != %d", a.Len(), b.Len())
	}
	for id := 0; id < a.Len(); id++ {
		if a.Alive(id) != b.Alive(id) {
			t.Fatalf("node %d liveness %v != %v", id, a.Alive(id), b.Alive(id))
		}
		if a.Position(id) != b.Position(id) {
			t.Fatalf("node %d position %v != %v", id, a.Position(id), b.Position(id))
		}
	}
	if a.Stats() != b.Stats() {
		t.Fatalf("stats %+v != %+v", a.Stats(), b.Stats())
	}
	if !a.nalpha.Equal(b.nalpha) {
		t.Fatal("maintained N_α differs")
	}
	if !a.gpre.Equal(b.gpre) {
		t.Fatal("maintained pre-pairwise G differs")
	}
	if !a.g.Equal(b.g) {
		t.Fatal("maintained G differs")
	}
	if !a.gr.Equal(b.gr) {
		t.Fatal("maintained G_R differs")
	}
	sa, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !sa.G.Equal(sb.G) {
		t.Fatal("snapshot G differs")
	}
	if !sa.GR.Equal(sb.GR) {
		t.Fatal("snapshot G_R differs")
	}
	if !reflect.DeepEqual(sa.Radii, sb.Radii) || !reflect.DeepEqual(sa.Powers, sb.Powers) {
		t.Fatal("snapshot radii/powers differ")
	}
	if !reflect.DeepEqual(sa.Boundary, sb.Boundary) {
		t.Fatal("snapshot boundary flags differ")
	}
}

// TestSessionCheckpointRoundTrip is the tentpole gate: across every
// option stack, a session that has seen a random event history
// checkpoints, restores edge-identically (including G_R), still matches
// a fresh run, and then evolves byte-identically to the original under
// the same continued event stream.
func TestSessionCheckpointRoundTrip(t *testing.T) {
	for _, st := range checkpointStacks {
		st := st
		t.Run(st.name, func(t *testing.T) {
			eng, err := New(st.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sess, err := eng.NewSession(context.Background(), someNetwork(21, 40))
			if err != nil {
				t.Fatal(err)
			}
			rng := workload.Rand(97)
			for step := 0; step < 6; step++ {
				if _, err := sess.ApplyBatch(randomBatch(rng, sess, 4, 1500)); err != nil {
					t.Fatal(err)
				}
			}

			var buf bytes.Buffer
			if err := sess.Checkpoint(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := eng.RestoreSession(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			requireSessionsIdentical(t, sess, restored)
			requireSessionMatchesFreshRun(t, eng, restored)

			// Continue both copies under the identical event stream: every
			// tick must produce byte-identical reports and observations.
			for step := 0; step < 6; step++ {
				batch := randomBatch(rng, sess, 4, 1500)
				repA, tsA, errA := sess.Tick(batch)
				repB, tsB, errB := restored.Tick(batch)
				if errA != nil || errB != nil {
					t.Fatalf("tick %d: %v / %v", step, errA, errB)
				}
				if !reflect.DeepEqual(repA, repB) {
					t.Fatalf("tick %d: reports diverge:\n%+v\n%+v", step, repA, repB)
				}
				if tsA != tsB {
					t.Fatalf("tick %d: observations diverge: %+v != %+v", step, tsA, tsB)
				}
			}
			requireSessionsIdentical(t, sess, restored)
			requireSessionMatchesFreshRun(t, eng, restored)
		})
	}
}

// TestPairwiseCheckpointWithoutGraphs restores a pairwise-removal
// session from a checkpoint in the shape older writers produced for that
// stack: the incremental flag cleared and no graph section, only the node
// rows. Restore must rebuild the maintained graphs from the rows, derive
// the final graph, and leave a session identical to the original — now
// and after further identical ticks.
func TestPairwiseCheckpointWithoutGraphs(t *testing.T) {
	eng, err := New(WithMaxRadius(500), WithAllOptimizations())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), someNetwork(23, 40))
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.Rand(41)
	for step := 0; step < 6; step++ {
		if _, err := sess.ApplyBatch(randomBatch(rng, sess, 4, 1500)); err != nil {
			t.Fatal(err)
		}
	}
	sess.mu.Lock()
	st := sess.exportLocked()
	sess.mu.Unlock()
	st.Incremental = false
	st.Pruned, st.Nalpha, st.G, st.GR = nil, nil, nil, nil
	var buf bytes.Buffer
	if err := codec.EncodeSession(&buf, st); err != nil {
		t.Fatal(err)
	}
	restored, err := eng.RestoreSession(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	requireSessionsIdentical(t, sess, restored)
	for step := 0; step < 4; step++ {
		batch := randomBatch(rng, sess, 4, 1500)
		repA, tsA, errA := sess.Tick(batch)
		repB, tsB, errB := restored.Tick(batch)
		if errA != nil || errB != nil {
			t.Fatalf("tick %d: %v / %v", step, errA, errB)
		}
		if !reflect.DeepEqual(repA, repB) || tsA != tsB {
			t.Fatalf("tick %d: restored session diverges", step)
		}
	}
	requireSessionsIdentical(t, sess, restored)
}

// TestSessionCheckpointConcurrent checkpoints a session while another
// goroutine keeps applying events. Every checkpoint must decode into a
// consistent session that matches a fresh run over its own live
// placement — the COW-snapshot contract of Checkpoint (and, under
// -race, proof that encoding off-lock shares no mutable state).
func TestSessionCheckpointConcurrent(t *testing.T) {
	eng, err := New(WithMaxRadius(500), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), someNetwork(3, 60))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := workload.Rand(5)
		for i := 0; i < 40; i++ {
			if _, err := sess.ApplyBatch(randomBatch(rng, sess, 4, 1500)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 10; i++ {
		var buf bytes.Buffer
		if err := sess.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		restored, err := eng.RestoreSession(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		requireSessionMatchesFreshRun(t, eng, restored)
	}
	<-done
}

// TestCheckpointConfigMismatch: restoring under any different engine
// configuration is refused with ErrConfigMismatch, for sessions and
// fleets alike.
func TestCheckpointConfigMismatch(t *testing.T) {
	engA, err := New(WithMaxRadius(500), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	others := [][]Option{
		{WithMaxRadius(500)},                                   // different stack
		{WithMaxRadius(400), WithShrinkBack()},                 // different radius
		{WithMaxRadius(500), WithShrinkBack(), WithAlpha(2.0)}, // different α
		{WithRadioModel(RadioModel{Exponent: 4, MaxRadius: 500, RefLoss: 1}), WithShrinkBack()}, // different model
		{WithMaxRadius(500), WithShrinkBack(), WithShrinkBackSchedule(1.5)},                     // quantized
	}

	sess, err := engA.NewSession(context.Background(), someNetwork(9, 30))
	if err != nil {
		t.Fatal(err)
	}
	var sbuf bytes.Buffer
	if err := sess.Checkpoint(&sbuf); err != nil {
		t.Fatal(err)
	}
	fleet, err := engA.NewFleet(context.Background(), FleetConfig{Members: oracleMembers([][]Point{someNetwork(9, 20), someNetwork(10, 20)}), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var fbuf bytes.Buffer
	if err := fleet.Checkpoint(&fbuf); err != nil {
		t.Fatal(err)
	}

	for i, opts := range others {
		engB, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := engB.RestoreSession(bytes.NewReader(sbuf.Bytes())); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("engine %d session restore: got %v, want ErrConfigMismatch", i, err)
		}
		if _, err := engB.RestoreFleet(bytes.NewReader(fbuf.Bytes())); !errors.Is(err, ErrConfigMismatch) {
			t.Errorf("engine %d fleet restore: got %v, want ErrConfigMismatch", i, err)
		}
	}
	// The producing engine itself restores fine.
	if _, err := engA.RestoreSession(bytes.NewReader(sbuf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if _, err := engA.RestoreFleet(bytes.NewReader(fbuf.Bytes())); err != nil {
		t.Fatal(err)
	}
}

// Equivalent pairwise stacks restore each other's checkpoints: the
// default policy fingerprints as 0 however it was requested, and a
// checkpoint that spells it 1 (as checkpoints written before that
// canonical spelling do) restores on every equivalent engine, both as a
// session and as a fleet with a derived member.
func TestEquivalentPairwiseStacksRestore(t *testing.T) {
	ctx := context.Background()
	var engs []*Engine
	for _, opts := range [][]Option{
		{WithMaxRadius(500), WithAllOptimizations()},
		{WithMaxRadius(500), WithAllOptimizations(), WithPairwiseRemoval(0)},
		{WithMaxRadius(500), WithShrinkBack(), WithPairwiseRemoval(PairwiseLengthFiltered)},
	} {
		eng, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		engs = append(engs, eng)
	}
	for a, engA := range engs {
		sess, err := engA.NewSession(ctx, someNetwork(3, 80))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := sess.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		st, err := codec.DecodeSession(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		st.Config.PairwisePolicy = uint8(PairwiseLengthFiltered)
		var legacy bytes.Buffer
		if err := codec.EncodeSession(&legacy, st); err != nil {
			t.Fatal(err)
		}
		for b, engB := range engs {
			for name, data := range map[string][]byte{"canonical": buf.Bytes(), "policy-1": legacy.Bytes()} {
				restored, err := engB.RestoreSession(bytes.NewReader(data))
				if err != nil {
					t.Fatalf("%s checkpoint of engine %d on engine %d: %v", name, a, b, err)
				}
				requireSessionsIdentical(t, sess, restored)
			}
		}
	}

	base := engs[2]
	fleet, err := base.NewFleet(ctx, FleetConfig{Members: []MemberSpec{
		{Placement: someNetwork(4, 40)},
		{Placement: someNetwork(5, 40), Options: []Option{WithShrinkBackSchedule(1.5)}},
	}, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fleet.Run(ctx, 3, DriftTick(TickProfile{Moves: 3, Jitter: 60, JoinProb: 0.3, LeaveProb: 0.3, Width: 1000, Height: 1000}))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fleet.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	st, err := codec.DecodeFleet(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st.Config.PairwisePolicy = uint8(PairwiseLengthFiltered)
	for i := range st.Nets {
		st.Nets[i].Config.PairwisePolicy = uint8(PairwiseLengthFiltered)
	}
	var legacy bytes.Buffer
	if err := codec.EncodeFleet(&legacy, st); err != nil {
		t.Fatal(err)
	}
	for b, eng := range engs {
		restored, err := eng.RestoreFleet(bytes.NewReader(legacy.Bytes()))
		if err != nil {
			t.Fatalf("policy-1 fleet checkpoint on engine %d: %v", b, err)
		}
		got, err := restored.Report()
		if err != nil {
			t.Fatal(err)
		}
		zeroSched(got)
		zeroSched(want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("policy-1 fleet checkpoint on engine %d: restored report differs", b)
		}
		if restored.nets[1].eng.fingerprint().ScheduleFactor != 1.5 {
			t.Errorf("engine %d: derived member lost its schedule", b)
		}
	}
}

// TestRestoreErrorPaths: hostile and mangled inputs yield the typed
// public errors, never a panic.
func TestRestoreErrorPaths(t *testing.T) {
	eng, err := New(WithMaxRadius(500), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := eng.NewSession(context.Background(), someNetwork(2, 25))
	if err != nil {
		t.Fatal(err)
	}
	var sbuf bytes.Buffer
	if err := sess.Checkpoint(&sbuf); err != nil {
		t.Fatal(err)
	}
	fleet, err := eng.NewFleet(context.Background(), FleetConfig{Members: oracleMembers([][]Point{someNetwork(4, 15)}), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var fbuf bytes.Buffer
	if err := fleet.Checkpoint(&fbuf); err != nil {
		t.Fatal(err)
	}

	if _, err := eng.RestoreSession(bytes.NewReader([]byte("not a checkpoint"))); !errors.Is(err, ErrNotCheckpoint) {
		t.Errorf("garbage: got %v, want ErrNotCheckpoint", err)
	}
	verFlip := bytes.Clone(sbuf.Bytes())
	verFlip[4] ^= 0xff
	if _, err := eng.RestoreSession(bytes.NewReader(verFlip)); !errors.Is(err, ErrCheckpointVersion) {
		t.Errorf("version flip: got %v, want ErrCheckpointVersion", err)
	}
	if _, err := eng.RestoreSession(bytes.NewReader(fbuf.Bytes())); !errors.Is(err, ErrCheckpointKind) {
		t.Errorf("fleet into RestoreSession: got %v, want ErrCheckpointKind", err)
	}
	if _, err := eng.RestoreFleet(bytes.NewReader(sbuf.Bytes())); !errors.Is(err, ErrCheckpointKind) {
		t.Errorf("session into RestoreFleet: got %v, want ErrCheckpointKind", err)
	}
	// Every strict prefix of a valid checkpoint is truncated input.
	for _, cut := range []int{7, 16, sbuf.Len() / 2, sbuf.Len() - 1} {
		if _, err := eng.RestoreSession(bytes.NewReader(sbuf.Bytes()[:cut])); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("truncated at %d: got %v, want ErrCheckpointCorrupt", cut, err)
		}
	}
	for _, cut := range []int{7, fbuf.Len() / 2, fbuf.Len() - 1} {
		if _, err := eng.RestoreFleet(bytes.NewReader(fbuf.Bytes()[:cut])); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Errorf("fleet truncated at %d: got %v, want ErrCheckpointCorrupt", cut, err)
		}
	}
}

// TestFleetCheckpointRoundTrip is the fleet-level acceptance gate: a
// fleet checkpointed mid-run restores to an identical report, and —
// restored at several worker counts — continues to byte-identical
// reports versus the uninterrupted original.
func TestFleetCheckpointRoundTrip(t *testing.T) {
	sc := workload.Fleet(3, 50, "uniform")
	tick := DriftTick(TickProfile{
		Moves: sc.Moves, Jitter: sc.Jitter,
		JoinProb: sc.JoinProb, LeaveProb: sc.LeaveProb,
		Width: sc.Side, Height: sc.Side,
	})
	eng, err := New(WithMaxRadius(sc.Radius), WithShrinkBack())
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := eng.NewFleet(context.Background(), FleetConfig{Members: oracleMembers(sc.Placements(11)), Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fleet.Run(context.Background(), 5, tick); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := fleet.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	repAtCkpt, err := fleet.Report()
	if err != nil {
		t.Fatal(err)
	}
	// The uninterrupted reference: the original fleet keeps running.
	refRep, err := fleet.Run(context.Background(), 5, tick)
	if err != nil {
		t.Fatal(err)
	}
	// Scheduling telemetry measures wall clock and is not carried by
	// checkpoints; everything else must round-trip exactly.
	zeroSched(repAtCkpt)
	zeroSched(refRep)

	for _, w := range []int{0, 1, 3} {
		engW, err := New(WithMaxRadius(sc.Radius), WithShrinkBack(), WithWorkers(w))
		if err != nil {
			t.Fatal(err)
		}
		restored, err := engW.RestoreFleet(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		rep0, err := restored.Report()
		if err != nil {
			t.Fatal(err)
		}
		zeroSched(rep0)
		if !reflect.DeepEqual(rep0, repAtCkpt) {
			t.Fatalf("workers=%d: restored report differs from checkpoint-time report", w)
		}
		rep, err := restored.Run(context.Background(), 5, tick)
		if err != nil {
			t.Fatal(err)
		}
		zeroSched(rep)
		if !reflect.DeepEqual(rep, refRep) {
			t.Fatalf("workers=%d: continued report diverges from uninterrupted run", w)
		}
	}
}

// TestFleetRaggedCheckpointResume pins the determinism invariant across
// the full heterogeneity surface: a mixed oracle+protocol fleet with
// per-member option stacks and tick weights, checkpointed at RAGGED
// per-member clocks (a cancelled run leaves members mid-catch-up),
// restores and continues byte-identically at workers 1, 2 and 8.
func TestFleetRaggedCheckpointResume(t *testing.T) {
	const seed = 41
	ctx := context.Background()
	members := mixedMembers(t, seed)
	sc := workload.Fleet(len(members), 40, "uniform")
	tick := fleetTick(sc)
	eng := fleetEngine(t)

	fleet, err := eng.NewFleet(ctx, FleetConfig{Members: members, Seed: seed, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Cancel partway through the rounds so the clocks freeze at ragged,
	// target-lagging positions.
	cancelCtx, cancel := context.WithCancel(ctx)
	var calls atomic.Int32
	interrupting := func(net, tk int, rng *rand.Rand, s *Session) []Event {
		if calls.Add(1) == 10 {
			cancel()
		}
		return tick(net, tk, rng, s)
	}
	if err := fleet.Advance(cancelCtx, 3, interrupting); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted Advance error = %v, want context.Canceled", err)
	}
	wm := fleet.Watermarks()
	ragged := false
	for _, c := range wm.Members {
		if c.Ticks < c.Target {
			ragged = true
		}
	}
	if !ragged {
		t.Fatal("cancellation left no member behind its target; checkpoint would not be ragged")
	}

	var buf bytes.Buffer
	if err := fleet.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	// The uninterrupted reference: the original fleet finishes the
	// remainder plus one more round.
	refRep, err := fleet.Run(ctx, 1, tick)
	if err != nil {
		t.Fatal(err)
	}
	zeroSched(refRep)

	for _, w := range []int{1, 2, 8} {
		engW := fleetEngine(t, WithWorkers(w))
		restored, err := engW.RestoreFleet(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		rwm := restored.Watermarks()
		if !reflect.DeepEqual(rwm, wm) {
			t.Fatalf("workers=%d: restored watermarks %+v != checkpointed %+v", w, rwm, wm)
		}
		rep, err := restored.Run(ctx, 1, tick)
		if err != nil {
			t.Fatal(err)
		}
		zeroSched(rep)
		if !reflect.DeepEqual(rep, refRep) {
			t.Fatalf("workers=%d: resumed report diverges from uninterrupted run", w)
		}
		for i := 0; i < restored.Size(); i++ {
			want, err := fleet.Session(i).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got, err := restored.Session(i).Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !got.G.Equal(want.G) || !got.GR.Equal(want.GR) {
				t.Errorf("workers=%d network %d: resumed topology differs", w, i)
			}
		}
	}
}

// TestFleetTickEvents covers the external-ingestion tick: equivalence
// with a Run over the same event schedule, all-or-nothing validation,
// and the batch-count contract.
func TestFleetTickEvents(t *testing.T) {
	placements := [][]Point{someNetwork(31, 30), someNetwork(32, 30)}
	newFleet := func() *Fleet {
		eng, err := New(WithMaxRadius(500), WithShrinkBack())
		if err != nil {
			t.Fatal(err)
		}
		f, err := eng.NewFleet(context.Background(), FleetConfig{Members: oracleMembers(placements), Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// A fixed three-tick schedule touching stable ids only. A nil slot
	// skips its member entirely (the clock stands still); an explicit
	// empty batch is a tick with no events.
	schedule := [][][]Event{
		{{JoinEvent(Pt(100, 100))}, {MoveEvent(2, Pt(40, 40))}},
		{{LeaveEvent(0), MoveEvent(3, Pt(700, 700))}, {}},
		{nil, {LeaveEvent(1), JoinEvent(Pt(900, 120))}},
	}

	viaEvents := newFleet()
	for _, batches := range schedule {
		if err := viaEvents.TickEvents(context.Background(), batches); err != nil {
			t.Fatal(err)
		}
	}
	// The skipped slots make the clocks ragged: member 0 ticked twice,
	// member 1 three times.
	wm := viaEvents.Watermarks()
	if wm.Ticks.Min != 2 || wm.Ticks.Max != 3 || wm.Members[0].Ticks != 2 {
		t.Fatalf("ragged watermarks = %+v, want member 0 at 2, member 1 at 3", wm)
	}

	// Per member, the same tick sequence via Run (with the skipped slots
	// removed) must produce the identical report slice.
	perNet := [][][]Event{
		{schedule[0][0], schedule[1][0]},
		{schedule[0][1], schedule[1][1], schedule[2][1]},
	}
	repEvents, err := viaEvents.Report()
	if err != nil {
		t.Fatal(err)
	}
	for net := range placements {
		single, err := newFleet().eng.NewFleet(context.Background(), FleetConfig{
			Members: []MemberSpec{{Placement: placements[net]}},
			Seed:    5,
		})
		if err != nil {
			t.Fatal(err)
		}
		repRun, err := single.Run(context.Background(), len(perNet[net]), func(_, tick int, _ *rand.Rand, _ *Session) []Event {
			return perNet[net][tick]
		})
		if err != nil {
			t.Fatal(err)
		}
		got, want := repEvents.PerNetwork[net], repRun.PerNetwork[0]
		got.Net, got.Sched = 0, MemberSchedStats{}
		want.Sched = MemberSchedStats{}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("network %d: TickEvents slice diverges from Run:\n%+v\n%+v", net, got, want)
		}
	}

	// Validation is all-or-nothing across the whole fleet.
	before, err := viaEvents.Report()
	if err != nil {
		t.Fatal(err)
	}
	bad := [][]Event{{LeaveEvent(10_000)}, {JoinEvent(Pt(1, 1))}}
	if err := viaEvents.TickEvents(context.Background(), bad); !errors.Is(err, ErrBadEvent) {
		t.Fatalf("invalid batch: got %v, want ErrBadEvent", err)
	}
	after, err := viaEvents.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatal("rejected tick mutated the fleet")
	}
	if err := viaEvents.TickEvents(context.Background(), [][]Event{nil}); !errors.Is(err, ErrBadEvent) {
		t.Fatalf("batch-count mismatch: got %v, want ErrBadEvent", err)
	}
}

// TestEngineFingerprintsPinned freezes the checkpoint fingerprint of the
// engine stacks durable state is written under — fleetd's, the paper's
// all-ops, a non-unit reference loss, shadowing, batteries, quantized
// tags and derived fleet members — as literal codec values, so a change
// to how options resolve can never silently orphan existing
// checkpoints.
func TestEngineFingerprintsPinned(t *testing.T) {
	const alpha56, alpha23 = 2.6179938779914944, 2.0943951023931957
	base := func(opts ...Option) *Engine {
		t.Helper()
		eng, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	derived := func(eng *Engine, opts ...Option) *Engine {
		t.Helper()
		d, err := eng.derive(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	cases := []struct {
		name string
		eng  *Engine
		want codec.EngineConfig
	}{
		{"fleetd", base(WithMaxRadius(250), WithShrinkBack()), codec.EngineConfig{
			Alpha: alpha56, MaxRadius: 250, PathLossExponent: 2, ShrinkBack: true, RefLoss: 1}},
		{"all-ops-2pi3", base(WithMaxRadius(500), WithAlpha(AlphaAsymmetric), WithAllOptimizations()), codec.EngineConfig{
			Alpha: alpha23, MaxRadius: 500, PathLossExponent: 2, ShrinkBack: true, AsymmetricRemoval: true, PairwiseRemoval: true, RefLoss: 1}},
		{"radio-model", base(WithRadioModel(RadioModel{Exponent: 3, MaxRadius: 500, RefLoss: 2})), codec.EngineConfig{
			Alpha: alpha56, MaxRadius: 500, PathLossExponent: 3, RefLoss: 2}},
		{"shadowed", base(WithMaxRadius(500), WithShadowing(8, 42)), codec.EngineConfig{
			Alpha: alpha56, MaxRadius: 500, PathLossExponent: 2, RefLoss: 1, RadioKind: 1, ShadowSigmaDB: 8, ShadowSeed: 42}},
		{"battery", base(WithMaxRadius(500), WithShrinkBack(), WithBattery(1e6, 1)), codec.EngineConfig{
			Alpha: alpha56, MaxRadius: 500, PathLossExponent: 2, ShrinkBack: true, RefLoss: 1, BatteryCapacity: 1e6, BatteryDrain: 1}},
		{"schedule", base(WithMaxRadius(500), WithShrinkBackSchedule(1.5)), codec.EngineConfig{
			Alpha: alpha56, MaxRadius: 500, PathLossExponent: 2, ScheduleFactor: 1.5, RefLoss: 1}},
		{"derived-member", derived(base(WithMaxRadius(500)), WithAlpha(AlphaAsymmetric), WithAllOptimizations(), WithShrinkBackSchedule(1.5)), codec.EngineConfig{
			Alpha: alpha23, MaxRadius: 500, PathLossExponent: 2, ShrinkBack: true, AsymmetricRemoval: true, PairwiseRemoval: true, ScheduleFactor: 1.5, RefLoss: 1}},
		{"derived-radio-member", derived(base(WithRadioModel(RadioModel{Exponent: 3, MaxRadius: 500, RefLoss: 2}), WithShadowing(6, 7)), WithShrinkBack(), WithBattery(100, 0.5)), codec.EngineConfig{
			Alpha: alpha56, MaxRadius: 500, PathLossExponent: 3, ShrinkBack: true, RefLoss: 2, RadioKind: 1, ShadowSigmaDB: 6, ShadowSeed: 7, BatteryCapacity: 100, BatteryDrain: 0.5}},
	}
	for _, tc := range cases {
		if got := tc.eng.fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint\n got %+v\nwant %+v", tc.name, got, tc.want)
		}
	}
}
