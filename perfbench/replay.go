package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"cbtc"
	"cbtc/internal/workload"
)

// minReplaySamples is how many fleet ticks the traced replay times, so
// that a p99 has minTail samples beyond it; short streams are replayed
// several times from a fresh fleet.
const minReplaySamples = 100 * minTail

// replayRun holds what one replay pass measured.
type replayRun struct {
	tickEvents samples // per Fleet.TickEvents call
	memberTick samples // per member tick, TickHook → ObserveHook
	skew       samples // per fleet tick: slowest member / mean member
	observe    samples // Fleet.Observe
	netReport  samples // Fleet.NetworkReport
	encode     samples // Fleet.Checkpoint
	verify     samples // Engine.RestoreFleet of that checkpoint
	ckptBytes  samples // checkpoint size
	newFleet   time.Duration
	fleet      *cbtc.Fleet
}

// replay rebuilds the daemon's fleet in process and applies the acked
// event stream, one Fleet.TickEvents per acked POST — fleetd's
// coalescing under one closed-loop writer — with the daemon's reads
// (Observe, NetworkReport) after each tick and its verified checkpoint
// (Checkpoint, then RestoreFleet) at start, every checkpoint interval
// of ack time and at the end. The first pass must end in exactly the
// per-network state fleetd reported; the stream is replayed until
// enough ticks are timed. The per-layer metrics go to res.
func replay(ctx context.Context, env runEnv, w ingestWorkload, sc workload.FleetScenario, posts []ackedPost, finals []finalStats, busySpan time.Duration, res *result) error {
	eng, err := cbtc.New(cbtc.WithMaxRadius(sc.Radius), cbtc.WithShrinkBack(), cbtc.WithWorkers(0))
	if err != nil {
		return err
	}
	tr := env.tracer
	var all replayRun
	var newFleet samples
	var busy float64
	var regrows, repairs, events int
	passes := (minReplaySamples + len(posts) - 1) / len(posts)
	for p := 0; p < passes; p++ {
		run, err := replayPass(ctx, eng, sc, env.seed, w.ckptIvl, posts, tr)
		if err != nil {
			return err
		}
		if p == 0 {
			if err := compareFinals(run.fleet, finals, posts); err != nil {
				return fmt.Errorf("replay differs from fleetd: %w", err)
			}
			for i := 0; i < run.fleet.Size(); i++ {
				nr, err := run.fleet.NetworkReport(i)
				if err != nil {
					return err
				}
				regrows += nr.Stats.Regrows
				repairs += nr.Stats.Repairs
				events += nr.Events
			}
			busy = run.tickEvents.sum() / ms(busySpan)
		}
		all.tickEvents = append(all.tickEvents, run.tickEvents...)
		all.memberTick = append(all.memberTick, run.memberTick...)
		all.skew = append(all.skew, run.skew...)
		all.observe = append(all.observe, run.observe...)
		all.netReport = append(all.netReport, run.netReport...)
		all.encode = append(all.encode, run.encode...)
		all.verify = append(all.verify, run.verify...)
		all.ckptBytes = append(all.ckptBytes, run.ckptBytes...)
		newFleet.addDur(run.newFleet)
	}
	if err := errors.Join(
		tailCheck("fleet.tick_events", len(all.tickEvents), 99),
		tailCheck("session.tick", len(all.memberTick), 99),
		tailCheck("fleet.observe", len(all.observe), 99),
		tailCheck("fleet.network_report", len(all.netReport), 99),
	); err != nil {
		return err
	}
	res.layer("fleet.tick_events.p50_ms", all.tickEvents.median())
	res.layer("fleet.tick_events.p99_ms", all.tickEvents.pct(99))
	res.layer("fleet.tick_events.busy_frac", busy)
	res.layer("session.tick.p50_ms", all.memberTick.median())
	res.layer("session.tick.p99_ms", all.memberTick.pct(99))
	res.layer("fleet.tick_skew", all.skew.median())
	res.layer("session.regrows_per_event", float64(regrows)/float64(events))
	res.layer("session.repairs_per_event", float64(repairs)/float64(events))
	res.layer("fleet.observe.p99_us", all.observe.pct(99)*1000)
	res.layer("fleet.network_report.p99_ms", all.netReport.pct(99))
	res.layer("fleet.new_ms", newFleet.median())
	res.layer("checkpoint.encode.p50_ms", all.encode.median())
	res.layer("checkpoint.verify.p50_ms", all.verify.median())
	res.layer("checkpoint.bytes", all.ckptBytes.median())
	return nil
}

func replayPass(ctx context.Context, eng *cbtc.Engine, sc workload.FleetScenario, seed uint64, ckptIvl time.Duration, posts []ackedPost, tr *tracer) (*replayRun, error) {
	run := &replayRun{}
	root := tr.begin("replay", -1)
	defer tr.end(root)

	// Member ticks run on the fleet's workers; a member is driven by
	// one worker at a time, so each slot has a single writer per tick.
	var (
		tickSpan atomic.Int64
		starts   = make([]time.Time, sc.M)
		spans    = make([]int, sc.M)
		durs     = make([]time.Duration, sc.M)
	)
	members := make([]cbtc.MemberSpec, 0, sc.M)
	for _, p := range sc.Placements(seed) {
		members = append(members, cbtc.MemberSpec{Placement: p})
	}
	cfg := cbtc.FleetConfig{Members: members, Seed: seed}
	if tr != nil {
		cfg.TickHook = func(net, _ int) {
			spans[net] = tr.begin("session.tick", int(tickSpan.Load()))
			starts[net] = time.Now()
		}
		cfg.ObserveHook = func(net, _ int, _ cbtc.TickStats) {
			durs[net] = time.Since(starts[net])
			tr.end(spans[net])
		}
	}
	sp := tr.begin("fleet.new", root)
	t0 := time.Now()
	fleet, err := eng.NewFleet(ctx, cfg)
	run.newFleet = time.Since(t0)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	run.fleet = fleet

	checkpoint := func() error {
		var buf bytes.Buffer
		sp := tr.begin("checkpoint.encode", root)
		t0 := time.Now()
		err := fleet.Checkpoint(&buf)
		run.encode.addDur(time.Since(t0))
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("checkpoint.verify", root)
		t0 = time.Now()
		_, err = eng.RestoreFleet(bytes.NewReader(buf.Bytes()))
		run.verify.addDur(time.Since(t0))
		tr.end(sp)
		run.ckptBytes.add(float64(buf.Len()))
		return err
	}

	if err := checkpoint(); err != nil { // fleetd's post-recovery checkpoint
		return nil, err
	}
	nextCkpt := ckptIvl
	batches := make([][]cbtc.Event, sc.M)
	for k, p := range posts {
		clear(batches)
		for _, ev := range p.events {
			batches[ev.Net] = append(batches[ev.Net], ev.event())
		}
		clear(durs)
		sp := tr.begin("fleet.tick_events", root)
		tickSpan.Store(int64(sp))
		t0 := time.Now()
		err := fleet.TickEvents(ctx, batches)
		run.tickEvents.addDur(time.Since(t0))
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("replay tick %d: %w", k, err)
		}
		if tr != nil {
			var sum, worst time.Duration
			ticked := 0
			for i, b := range batches {
				if b == nil {
					continue
				}
				run.memberTick.addDur(durs[i])
				sum += durs[i]
				worst = max(worst, durs[i])
				ticked++
			}
			if ticked > 1 && sum > 0 {
				run.skew.add(float64(worst) * float64(ticked) / float64(sum))
			}
		}

		sp = tr.begin("fleet.observe", root)
		t0 = time.Now()
		_, err = fleet.Observe()
		run.observe.addDur(time.Since(t0))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("fleet.network_report", root)
		t0 = time.Now()
		_, err = fleet.NetworkReport(k % sc.M)
		run.netReport.addDur(time.Since(t0))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		for ckptIvl > 0 && p.at >= nextCkpt {
			if err := checkpoint(); err != nil {
				return nil, err
			}
			nextCkpt += ckptIvl
		}
	}
	if err := checkpoint(); err != nil { // fleetd's shutdown checkpoint
		return nil, err
	}
	return run, nil
}

// compareFinals requires the replayed fleet to end exactly where fleetd
// did: per network the same live count, edge count, component count and
// mean radius (bit for bit), and the same number of applied events.
func compareFinals(f *cbtc.Fleet, finals []finalStats, posts []ackedPost) error {
	perNet := make([]int, f.Size())
	for _, p := range posts {
		for _, ev := range p.events {
			perNet[ev.Net]++
		}
	}
	var errs []error
	for i, want := range finals {
		ts, err := f.Session(i).Observe()
		if err != nil {
			return err
		}
		got := finalStats{Live: ts.Live, Edges: ts.Edges, Components: ts.Components, AvgRadius: ts.AvgRadius}
		if got != want {
			errs = append(errs, fmt.Errorf("network %d: replay %+v, fleetd %+v", i, got, want))
		}
		nr, err := f.NetworkReport(i)
		if err != nil {
			return err
		}
		if nr.Events != perNet[i] {
			errs = append(errs, fmt.Errorf("network %d: replay applied %d events, %d acked", i, nr.Events, perNet[i]))
		}
	}
	return errors.Join(errs...)
}
