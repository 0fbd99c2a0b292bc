package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"cbtc/internal/workload"
)

// ingestWorkload drives a real fleetd over loopback HTTP with one
// closed-loop writer and one open-loop reader, each on its own
// connection.
type ingestWorkload struct {
	m, n    int
	burst   int           // events per POST
	ckptIvl time.Duration // fleetd -checkpoint-interval
	setups  int           // daemon starts per run; setup_s is their median
}

const (
	readRate     = 50 // reader GETs per second
	warmupPosts  = 3  // untimed POSTs before the window opens
	requestLimit = 10 * time.Second
	// lagLimit flags a run whose reader fell behind its own schedule:
	// beyond it the open loop no longer offers the load it claims.
	lagLimit = 20 * time.Millisecond
)

// ackedPost is one acknowledged POST: its events in send order and when
// its 202 arrived, relative to the daemon's start.
type ackedPost struct {
	events []wireEvent
	at     time.Duration
}

// healthz is the subset of fleetd's /healthz the benchmark reads.
type healthz struct {
	Quarantined  int64 `json:"quarantined"`
	Ticks        int64 `json:"ticks"`
	Applied      int64 `json:"applied"`
	Rejected     int64 `json:"rejected"`
	Dropped      int64 `json:"dropped"`
	IngestErrors int64 `json:"ingest_errors"`
	Queued       int64 `json:"queued"`
}

// networkReport is the subset of fleetd's /network/{i} the benchmark
// checks; the field names are cbtc.FleetNetworkReport's.
type networkReport struct {
	Events    int
	Preserved bool
	Final     finalStats
}

type finalStats struct {
	Live, Edges, Components int
	AvgRadius               float64
}

func newClient() *http.Client {
	return &http.Client{
		Timeout:   requestLimit,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func (w ingestWorkload) run(ctx context.Context, env runEnv) (*result, error) {
	sc := workload.Fleet(w.m, w.n, "uniform")
	spec := daemonSpec{m: w.m, n: w.n, seed: env.seed, ckptIvl: w.ckptIvl}

	// Set-up: exec → first healthy /healthz, several times; the last
	// daemon started is the one measured.
	var setup samples
	var d *daemon
	for i := 0; i < w.setups; i++ {
		dd, took, err := startDaemon(ctx, env.fleetd, env.workdir, spec)
		if err != nil {
			return nil, err
		}
		setup.add(took.Seconds())
		if i < w.setups-1 {
			if err := dd.stop(); err != nil {
				return nil, err
			}
			continue
		}
		d = dd
	}
	stopped := false
	defer func() {
		if !stopped {
			d.kill()
		}
	}()
	daemonStart := time.Now()

	gen := newGenerator(sc, env.seed)
	writer := &writer{client: newClient(), base: d.base, gen: gen, burst: w.burst, origin: daemonStart}
	reader := &reader{conn: &conn{addr: strings.TrimPrefix(d.base, "http://")}, rng: workload.Rand(workload.Mix(env.seed, 2<<32))}
	defer writer.client.CloseIdleConnections()
	defer reader.conn.close()

	for i := 0; i < warmupPosts; i++ {
		if _, err := writer.post(); err != nil {
			return nil, fmt.Errorf("warm-up POST: %w", err)
		}
	}
	first := time.Now()
	end := first.Add(env.seconds)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); writer.loop(end) }()
	go func() { defer wg.Done(); reader.loop(first, env.seconds) }()
	wg.Wait()
	window := writer.lastAck.Sub(first)

	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res := &result{attempted: writer.attempted + reader.attempted, failed: writer.failed + reader.failed}
	finals, gateErr := w.gate(d, gen, writer)
	stopErr := d.stop()
	stopped = true
	res.addCheck("ingest gate", gateErr)
	res.addCheck("fleetd shutdown", stopErr)
	if writer.failed+reader.failed > 0 {
		res.addCheck("requests", fmt.Errorf("%d POSTs and %d GETs failed: %s", writer.failed, reader.failed, strings.Join(append(writer.errs, reader.errs...), "; ")))
	}
	if lag := reader.lag.pct(99); lag > ms(lagLimit) {
		res.addCheck("reader schedule", fmt.Errorf("generator fell behind: read lag p99 %.2f ms > %v", lag, lagLimit))
	}

	fmt.Fprintf(os.Stderr, "perfbench: setup_s %s\nperfbench: acks %s\nperfbench: reads %s\nperfbench: read lag %s\n", setup.summary(), writer.acks.summary(), reader.lat.summary(), reader.lag.summary())
	if !env.trace {
		res.addCheck("sample count", errors.Join(tailCheck("ack", len(writer.acks), 90), tailCheck("read", len(reader.lat), 50)))
		res.metric("throughput_per_s", float64(writer.timedEvents)/window.Seconds())
		res.metric("op_p50_ms", writer.acks.median())
		res.metric("op_p90_ms", writer.acks.pct(90))
		res.metric("read_p50_ms", reader.lat.median())
		res.metric("setup_s", setup.median())
		res.metric("peak_rss_mb", rss)
		return res, nil
	}

	res.addCheck("sample count", errors.Join(tailCheck("healthz", len(reader.lat), 99), tailCheck("read lag", len(reader.lag), 99)))
	res.layer("fleetd.events_per_tick", reader.eventsPerTick())
	res.layer("fleetd.queue_depth.max", float64(reader.maxQueued))
	res.layer("http.healthz.p99_ms", reader.lat.pct(99))
	res.layer("gen.read_lag.p99_ms", reader.lag.pct(99))
	if finals != nil && !res.failedChecks() {
		res.addCheck("replay", replay(ctx, env, w, sc, writer.posts, finals, writer.lastAck.Sub(writer.firstSend), res))
	}
	return res, nil
}

// gate checks the daemon's end state against everything acked: nothing
// rejected, dropped or quarantined; every acked event applied; and per
// network the acked event count, the generator's live count and the
// paper's connectivity guarantee. It returns the per-network final
// stats for the replay comparison.
func (w ingestWorkload) gate(d *daemon, gen *generator, wr *writer) ([]finalStats, error) {
	c := newClient()
	defer c.CloseIdleConnections()
	var h healthz
	if err := getJSON(c, d.base+"/healthz", &h); err != nil {
		return nil, err
	}
	var acked int64
	perNet := make([]int, w.m)
	for _, p := range wr.posts {
		acked += int64(len(p.events))
		for _, ev := range p.events {
			perNet[ev.Net]++
		}
	}
	var errs []error
	if h.Rejected != 0 || h.Dropped != 0 || h.Quarantined != 0 || h.IngestErrors != 0 {
		errs = append(errs, fmt.Errorf("healthz: rejected=%d dropped=%d quarantined=%d ingest_errors=%d, want all 0", h.Rejected, h.Dropped, h.Quarantined, h.IngestErrors))
	}
	if h.Applied != acked {
		errs = append(errs, fmt.Errorf("healthz: applied=%d, acked %d", h.Applied, acked))
	}
	finals := make([]finalStats, w.m)
	for i := 0; i < w.m; i++ {
		var nr networkReport
		if err := getJSON(c, d.base+"/network/"+strconv.Itoa(i), &nr); err != nil {
			return nil, err
		}
		finals[i] = nr.Final
		if !nr.Preserved {
			errs = append(errs, fmt.Errorf("network %d: topology does not preserve connectivity", i))
		}
		if nr.Events != perNet[i] {
			errs = append(errs, fmt.Errorf("network %d: %d events applied, %d acked", i, nr.Events, perNet[i]))
		}
		if want := len(gen.nets[i].live); nr.Final.Live != want {
			errs = append(errs, fmt.Errorf("network %d: %d live nodes, generator model has %d", i, nr.Final.Live, want))
		}
	}
	return finals, errors.Join(errs...)
}

// writer is the closed-loop client: it sends the next burst only after
// the previous one was acknowledged.
type writer struct {
	client *http.Client
	base   string
	gen    *generator
	burst  int
	origin time.Time

	posts       []ackedPost
	acks        samples // POST sent → 202 received, timed POSTs only
	timedEvents int
	firstSend   time.Time
	lastAck     time.Time
	attempted   int
	failed      int
	errs        []string
}

// post sends one burst and records it if acknowledged in full.
func (wr *writer) post() (time.Duration, error) {
	evs := wr.gen.burst(wr.burst)
	var b strings.Builder
	for _, ev := range evs {
		ev.appendJSON(&b)
	}
	t0 := time.Now()
	if wr.firstSend.IsZero() {
		wr.firstSend = t0
	}
	resp, err := wr.client.Post(wr.base+"/events", "application/x-ndjson", strings.NewReader(b.String()))
	if err != nil {
		return 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	if err != nil {
		return 0, err
	}
	var ack struct {
		Accepted int `json:"accepted"`
	}
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("POST /events: status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		return 0, fmt.Errorf("POST /events: %w", err)
	}
	if ack.Accepted != len(evs) {
		return 0, fmt.Errorf("POST /events: accepted %d of %d", ack.Accepted, len(evs))
	}
	wr.posts = append(wr.posts, ackedPost{events: evs, at: t1.Sub(wr.origin)})
	wr.lastAck = t1
	return t1.Sub(t0), nil
}

func (wr *writer) loop(end time.Time) {
	for time.Now().Before(end) {
		wr.attempted++
		took, err := wr.post()
		if err != nil {
			// The generator's model now disagrees with the daemon; stop
			// rather than send events that may no longer be valid.
			wr.failed++
			wr.errs = append(wr.errs, err.Error())
			return
		}
		wr.acks.addDur(took)
		wr.timedEvents += wr.burst
	}
}

// reader is the open-loop client: GET i is due at a uniformly random
// instant of the i-th 1/readRate slot, whatever happened to GET i-1,
// and is timed from its due time, so a stall also charges the reads
// queued behind it. The reader's own lateness (time.Sleep waking up to
// a millisecond past the due time) is not fleetd's and is taken out.
// The random offset keeps the reads from locking onto one phase of
// fleetd's tick, so they sample every phase alike.
type reader struct {
	conn *conn
	rng  *rand.Rand

	lat               samples // due → response read, less the reader's own lateness
	lag               samples // generator lateness: send − max(due, previous response)
	attempted, failed int
	errs              []string

	first, last healthz // /healthz counters at the window's first and last probe
	seen        bool
	maxQueued   int64
}

func (r *reader) loop(start time.Time, window time.Duration) {
	interval := time.Second / readRate
	n := int(window / interval)
	prevDone := start
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k)*interval + time.Duration(r.rng.Int64N(int64(interval))))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		send := time.Now()
		lag := send.Sub(later(due, prevDone))
		r.lag.addDur(lag)
		r.attempted++
		body, err := r.conn.get("/healthz")
		done := time.Now()
		prevDone = done
		if err != nil {
			r.failed++
			if len(r.errs) < 3 {
				r.errs = append(r.errs, err.Error())
			}
			continue
		}
		r.lat.addDur(done.Sub(due) - lag)
		var h healthz
		if err := json.Unmarshal(body, &h); err == nil {
			if !r.seen {
				r.first, r.seen = h, true
			}
			r.last = h
			r.maxQueued = max(r.maxQueued, h.Queued)
		}
	}
}

// conn is a keep-alive HTTP/1.1 client on one loopback connection
// that reads each response on the caller's goroutine. net/http's
// Transport hands every request to two goroutines of its own, and on a
// 2-vCPU host waking them added about 0.15 ms, a quarter, to each
// 0.6 ms read.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

func (c *conn) get(path string) ([]byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestLimit)
		if err != nil {
			return nil, err
		}
		c.c, c.br = nc, bufio.NewReader(nc)
	}
	body, keep, err := c.roundTrip(path)
	if err != nil || !keep {
		c.close()
	}
	return body, err
}

func (c *conn) roundTrip(path string) (body []byte, keep bool, err error) {
	if err := c.c.SetDeadline(time.Now().Add(requestLimit)); err != nil {
		return nil, false, err
	}
	if _, err := io.WriteString(c.c, "GET "+path+" HTTP/1.1\r\nHost: "+c.addr+"\r\n\r\n"); err != nil {
		return nil, false, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return nil, false, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, !resp.Close, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return body, !resp.Close, nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
		c.c, c.br = nil, nil
	}
}

// eventsPerTick is Δapplied/Δticks over the window, as /healthz showed
// them.
func (r *reader) eventsPerTick() float64 {
	dt := r.last.Ticks - r.first.Ticks
	if dt <= 0 {
		return 0
	}
	return float64(r.last.Applied-r.first.Applied) / float64(dt)
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}
