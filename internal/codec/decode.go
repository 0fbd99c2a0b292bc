package codec

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"cbtc/internal/core"
	"cbtc/internal/geom"
	"cbtc/internal/graph"
	"cbtc/internal/stats"
)

// maxRNGBytes bounds the opaque per-network RNG blob; PCG state is 20
// bytes, so anything large is corruption, not a bigger generator.
const maxRNGBytes = 256

// DecodeSession reads a session checkpoint from r. It returns a typed
// error — ErrBadMagic, ErrVersion, ErrWrongKind or ErrCorrupt — on any
// invalid input, and never panics. Decode memory stays proportional to
// the bytes r actually yields, so truncated or hostile length fields
// cannot force large allocations.
func DecodeSession(r io.Reader) (*SessionState, error) {
	d := newDecoder(r)
	if err := d.header(KindSession); err != nil {
		return nil, err
	}
	st := &SessionState{}
	d.engineConfig(&st.Config)
	d.sessionBody(st)
	d.footer()
	if d.err != nil {
		return nil, d.err
	}
	return st, nil
}

// DecodeFleet reads a fleet checkpoint from r, with the same totality
// guarantees as DecodeSession.
func DecodeFleet(r io.Reader) (*FleetState, error) {
	d := newDecoder(r)
	if err := d.header(KindFleet); err != nil {
		return nil, err
	}
	st := &FleetState{}
	d.engineConfig(&st.Config)
	m := d.count("network count")
	for i := 0; i < m && d.err == nil; i++ {
		var n NetworkState
		d.engineConfig(&n.Config)
		n.Kind = d.u8()
		if d.err == nil && n.Kind > 1 {
			d.corrupt("network %d: unknown member kind %d", i, n.Kind)
		}
		n.Weight = d.i64()
		if d.err == nil && n.Weight < 1 {
			d.corrupt("network %d: tick weight %d out of range", i, n.Weight)
		}
		n.RNG = d.blob(maxRNGBytes, "rng state")
		n.Done = d.i64()
		n.Target = d.i64()
		n.Events = d.i64()
		if d.err == nil && (n.Done < 0 || n.Done > n.Target) {
			d.corrupt("network %d: clock %d outside [0, target %d]", i, n.Done, n.Target)
		}
		d.stream(&n.Degree)
		d.stream(&n.Radius)
		d.stream(&n.Components)
		d.stream(&n.Energy)
		if d.ver >= 3 {
			d.stream(&n.Residual)
			d.stream(&n.EnergyVar)
		} else {
			// A version-2 member has no battery, so each of its ticks
			// observed a zero residual and energy variance alongside
			// its degree.
			n.Residual = stats.Stream{Count: n.Degree.Count}
			n.EnergyVar = n.Residual
		}
		n.Session.Config = n.Config
		d.sessionBody(&n.Session)
		if d.err == nil {
			st.Nets = append(st.Nets, n)
		}
	}
	d.footer()
	if d.err != nil {
		return nil, d.err
	}
	return st, nil
}

// decoder wraps a buffered reader with sticky-error primitive reads;
// once an error occurs every subsequent read returns zero values, so
// decoding code reads straight-line and checks d.err at the end.
type decoder struct {
	r   *bufio.Reader
	buf [8]byte
	err error
	// ver is the stream's format version, set by header; body readers
	// branch on it to decode the sections older versions lack.
	ver uint16
}

func newDecoder(r io.Reader) *decoder {
	return &decoder{r: bufio.NewReaderSize(r, 1<<16)}
}

// fail records the first error; subsequent reads are no-ops.
func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *decoder) corrupt(format string, args ...any) {
	d.fail(fmt.Errorf("%w: %s", ErrCorrupt, fmt.Sprintf(format, args...)))
}

// read fills p exactly, mapping short reads to ErrCorrupt.
func (d *decoder) read(p []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			d.corrupt("truncated")
			return
		}
		d.fail(err)
	}
}

func (d *decoder) u8() uint8 {
	d.read(d.buf[:1])
	return d.buf[0]
}

func (d *decoder) u16() uint16 {
	d.read(d.buf[:2])
	return binary.LittleEndian.Uint16(d.buf[:2])
}

func (d *decoder) u32() uint32 {
	d.read(d.buf[:4])
	return binary.LittleEndian.Uint32(d.buf[:4])
}

func (d *decoder) u64() uint64 {
	d.read(d.buf[:8])
	return binary.LittleEndian.Uint64(d.buf[:8])
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) bool(what string) bool {
	switch d.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		if d.err == nil {
			d.corrupt("invalid %s flag", what)
		}
		return false
	}
}

// count reads a u32 element count and range-checks it against the int32
// id space.
func (d *decoder) count(what string) int {
	v := d.u32()
	if d.err == nil && v > math.MaxInt32 {
		d.corrupt("%s %d out of range", what, v)
		return 0
	}
	return int(v)
}

// blob reads a length-prefixed opaque byte section with a hard cap.
func (d *decoder) blob(max int, what string) []byte {
	n := d.count(what)
	if d.err != nil {
		return nil
	}
	if n > max {
		d.corrupt("%s length %d exceeds cap %d", what, n, max)
		return nil
	}
	p := make([]byte, n)
	d.read(p)
	if d.err != nil {
		return nil
	}
	return p
}

func (d *decoder) header(wantKind uint8) error {
	var m [4]byte
	d.read(m[:])
	if d.err != nil {
		return fmt.Errorf("%w: %v", ErrBadMagic, d.err)
	}
	if m != magic {
		return fmt.Errorf("%w: got %q", ErrBadMagic, m[:])
	}
	v := d.u16()
	kind := d.u8()
	if d.err != nil {
		return d.err
	}
	if v < MinVersion || v > Version {
		return fmt.Errorf("%w: got version %d, support %d–%d", ErrVersion, v, MinVersion, Version)
	}
	d.ver = v
	if kind != wantKind {
		return fmt.Errorf("%w: got kind %d, want %d", ErrWrongKind, kind, wantKind)
	}
	return nil
}

func (d *decoder) footer() {
	if v := d.u32(); d.err == nil && v != footer {
		d.corrupt("bad footer %#x", v)
	}
}

func (d *decoder) engineConfig(c *EngineConfig) {
	c.Alpha = d.f64()
	c.MaxRadius = d.f64()
	c.PathLossExponent = d.f64()
	c.ShrinkBack = d.bool("shrink-back")
	c.AsymmetricRemoval = d.bool("asymmetric-removal")
	c.PairwiseRemoval = d.bool("pairwise-removal")
	c.NonContributing = d.bool("non-contributing")
	c.PairwisePolicy = d.u8()
	c.ScheduleFactor = d.f64()
	if d.ver < 3 {
		// Version 2 predates the radio-identity fields: the stream was
		// always the pure power law with unit reference loss, no shadowing
		// and no battery.
		c.RefLoss = 1
		return
	}
	c.RefLoss = d.f64()
	c.RadioKind = d.u8()
	c.ShadowSigmaDB = d.f64()
	c.ShadowSeed = d.u64()
	c.BatteryCapacity = d.f64()
	c.BatteryDrain = d.f64()
	if d.err != nil {
		return
	}
	switch {
	case !finite(c.RefLoss) || c.RefLoss <= 0:
		d.corrupt("reference loss %v out of range", c.RefLoss)
	case c.RadioKind > 1:
		d.corrupt("unknown radio kind %d", c.RadioKind)
	case !finite(c.ShadowSigmaDB) || c.ShadowSigmaDB < 0:
		d.corrupt("shadowing sigma %v out of range", c.ShadowSigmaDB)
	case !finite(c.BatteryCapacity) || c.BatteryCapacity < 0:
		d.corrupt("battery capacity %v out of range", c.BatteryCapacity)
	case !finite(c.BatteryDrain) || c.BatteryDrain < 0:
		d.corrupt("battery drain %v out of range", c.BatteryDrain)
	}
}

func (d *decoder) stream(s *stats.Stream) {
	s.Count = d.i64()
	s.Mean = d.f64()
	s.M2 = d.f64()
	s.MinV = d.f64()
	s.MaxV = d.f64()
	if d.err == nil && s.Count < 0 {
		d.corrupt("negative stream count %d", s.Count)
	}
}

func (d *decoder) sessionBody(st *SessionState) {
	if d.err != nil {
		return
	}
	n := d.count("node count")
	st.Pos = d.points(n)
	st.Alive = d.bitset(n)

	grow := d.floats(n, "grow power")
	bounds := d.bitset(n)
	lens := d.rowLens(n, "discovery")
	if d.err != nil {
		return
	}
	nodes := make([]core.NodeResult, 0, growCap(n))
	for u := 0; u < n; u++ {
		nbrs := d.discoveries(int(lens[u]), n, u)
		if d.err != nil {
			return
		}
		nodes = append(nodes, core.NodeResult{
			Neighbors: nbrs,
			GrowPower: grow[u],
			Boundary:  bounds[u],
		})
	}
	st.Nodes = nodes

	st.Stats.Joins = d.i64()
	st.Stats.Leaves = d.i64()
	st.Stats.Moves = d.i64()
	st.Stats.AngleChanges = d.i64()
	st.Stats.Regrows = d.i64()
	st.Stats.Repairs = d.i64()
	for _, v := range []int64{st.Stats.Joins, st.Stats.Leaves, st.Stats.Moves, st.Stats.AngleChanges, st.Stats.Regrows, st.Stats.Repairs} {
		if d.err == nil && v < 0 {
			d.corrupt("negative session counter %d", v)
		}
	}

	if d.ver >= 3 && d.err == nil {
		if d.bool("battery presence") {
			st.Battery = d.floats(n, "battery")
			for i, b := range st.Battery {
				if d.err == nil && b < 0 {
					d.corrupt("battery %d negative", i)
				}
			}
		}
	}

	st.Incremental = d.bool("incremental")
	if d.err != nil || !st.Incremental {
		return
	}
	plens := d.rowLens(n, "pruned")
	if d.err != nil {
		return
	}
	st.Pruned = make([][]core.Discovery, n)
	for u := 0; u < n; u++ {
		st.Pruned[u] = d.discoveries(int(plens[u]), n, u)
		if d.err != nil {
			return
		}
	}
	st.Nalpha = d.digraph(n)
	st.G = d.graph(n)
	st.GR = d.graph(n)
	if d.err == nil {
		d.validateIncremental(st)
	}
}

// validateIncremental cross-checks invariants the graph-level validation
// cannot see: departed nodes must be isolated everywhere, so a restored
// session's derived metrics (live components, degree aggregates) mean
// what the original's meant.
func (d *decoder) validateIncremental(st *SessionState) {
	for u, alive := range st.Alive {
		if alive {
			continue
		}
		if len(st.Nodes[u].Neighbors) != 0 || len(st.Pruned[u]) != 0 ||
			st.Nalpha.OutDegree(u) != 0 || st.G.Degree(u) != 0 || st.GR.Degree(u) != 0 {
			d.corrupt("departed node %d is not isolated", u)
			return
		}
	}
}

func (d *decoder) points(n int) []geom.Point {
	out := growPoints(n)
	for i := 0; i < n; i++ {
		p := geom.Point{X: d.f64(), Y: d.f64()}
		if d.err != nil {
			return nil
		}
		if math.IsNaN(p.X) || math.IsNaN(p.Y) || math.IsInf(p.X, 0) || math.IsInf(p.Y, 0) {
			d.corrupt("position %d not finite", i)
			return nil
		}
		out = append(out, p)
	}
	return out
}

func (d *decoder) floats(n int, what string) []float64 {
	out := make([]float64, 0, growCap(n))
	for i := 0; i < n; i++ {
		v := d.f64()
		if d.err != nil {
			return nil
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			d.corrupt("%s %d not finite", what, i)
			return nil
		}
		out = append(out, v)
	}
	return out
}

func (d *decoder) bitset(n int) []bool {
	out := make([]bool, 0, growCap(n))
	nb := (n + 7) / 8
	for i := 0; i < nb; i++ {
		b := d.u8()
		if d.err != nil {
			return nil
		}
		for j := 0; j < 8 && len(out) < n; j++ {
			out = append(out, b&(1<<j) != 0)
		}
	}
	return out
}

// rowLens reads one per-node row-length vector, capping each row at
// n-1: a row of distinct in-range ids can never be longer.
func (d *decoder) rowLens(n int, what string) []int32 {
	out := make([]int32, 0, growCap(n))
	for i := 0; i < n; i++ {
		l := d.u32()
		if d.err != nil {
			return nil
		}
		if int64(l) >= int64(n) {
			d.corrupt("%s row %d length %d out of range", what, i, l)
			return nil
		}
		out = append(out, int32(l))
	}
	return out
}

// discoveries reads one node's discovery row, validating ids (in range,
// not the node itself) and float finiteness.
func (d *decoder) discoveries(k, n, u int) []core.Discovery {
	out := make([]core.Discovery, 0, growCap(k))
	for i := 0; i < k; i++ {
		id := int32(d.u32())
		dist := d.f64()
		dir := d.f64()
		power := d.f64()
		if d.err != nil {
			return nil
		}
		if int(id) < 0 || int(id) >= n || int(id) == u {
			d.corrupt("node %d discovery %d: bad id %d", u, i, id)
			return nil
		}
		if !finite(dist) || !finite(dir) || !finite(power) {
			d.corrupt("node %d discovery %d: non-finite fields", u, i)
			return nil
		}
		out = append(out, core.Discovery{ID: int(id), Dist: dist, Dir: dir, Power: power})
	}
	return out
}

// graph reads one arena dump and rebuilds the symmetric graph through
// the validating loader.
func (d *decoder) graph(n int) *graph.Graph {
	lens, arena := d.arena(n)
	if d.err != nil {
		return nil
	}
	g, err := graph.NewFromDump(lens, arena)
	if err != nil {
		d.corrupt("%v", err)
		return nil
	}
	return g
}

func (d *decoder) digraph(n int) *graph.Digraph {
	lens, arena := d.arena(n)
	if d.err != nil {
		return nil
	}
	g, err := graph.NewDigraphFromDump(lens, arena)
	if err != nil {
		d.corrupt("%v", err)
		return nil
	}
	return g
}

// arena reads one graph dump: n row lengths, an entry count, and the
// packed int32 arena, read in chunks so a hostile count cannot force a
// large allocation.
func (d *decoder) arena(n int) (lens, arena []int32) {
	lens = d.rowLens(n, "graph")
	if d.err != nil {
		return nil, nil
	}
	var total int64
	for _, l := range lens {
		total += int64(l)
	}
	claimed := d.u64()
	if d.err != nil {
		return nil, nil
	}
	if claimed != uint64(total) {
		d.corrupt("arena length %d does not match row lengths %d", claimed, total)
		return nil, nil
	}
	arena = d.int32s(int(total))
	return lens, arena
}

// int32s bulk-reads k int32 values through a staging chunk, growing the
// output as bytes actually arrive.
func (d *decoder) int32s(k int) []int32 {
	out := make([]int32, 0, growCap(k))
	var chunk [4096]byte
	for len(out) < k {
		c := k - len(out)
		if c > len(chunk)/4 {
			c = len(chunk) / 4
		}
		d.read(chunk[:4*c])
		if d.err != nil {
			return nil
		}
		for i := 0; i < c; i++ {
			out = append(out, int32(binary.LittleEndian.Uint32(chunk[4*i:])))
		}
	}
	return out
}

// growCap bounds up-front allocation for attacker-controlled counts:
// allocate at most 64k elements eagerly and let append grow the rest as
// real bytes arrive.
func growCap(n int) int {
	if n < 0 {
		return 0
	}
	if n > 1<<16 {
		return 1 << 16
	}
	return n
}

func growPoints(n int) []geom.Point {
	return make([]geom.Point, 0, growCap(n))
}

func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}
