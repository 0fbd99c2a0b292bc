// Package chaos is a seeded, deterministic fault injector for the
// fault-tolerance test matrix: member-tick panics, member-tick delays,
// checkpoint-write failures and single-byte corruption.
//
// Every decision is a pure function of the injector's seed and the
// fault site's coordinates — hash(seed, domain, a, b) mapped to [0, 1)
// — never of a sequential RNG stream. That is what makes the injector
// usable under the fleet's worker pool: member ticks run in
// a scheduling-dependent order across worker counts, but a fault keyed
// on (net, tick) fires at the same site every run, so "panic 2 of 9
// members" produces the same two casualties at workers 1, 2 and 8 and
// the healthy members stay byte-identical to a chaos-free run.
//
// The injector plugs into the production surfaces it exercises:
// Injector.Tick matches cbtc's fleet TickHook signature (panicking
// there quarantines the member exactly as a real tick panic would),
// FailCheckpoint gates fleetd's checkpoint writer, and FlipByte mutates
// checkpoint bytes for the generation-fallback tests.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Fault-site domains, folded into the decision hash so the same
// (net, tick) pair draws independent decisions for each fault kind.
const (
	domTickPanic uint64 = 0x70616e6963 // "panic"
	domTickDelay uint64 = 0x64656c6179 // "delay"
	domCkptFail  uint64 = 0x636b7074   // "ckpt"
	domCorrupt   uint64 = 0x666c6970   // "flip"
)

// Faults configures an Injector: one seed and a probability per fault
// class. Zero probabilities inject nothing, so the zero value is a
// no-op injector.
type Faults struct {
	// Seed keys every decision. Two injectors with the same Faults make
	// identical decisions at every site.
	Seed uint64
	// TickPanic is the probability that a given member tick panics.
	TickPanic float64
	// TickDelay is the probability that a given member tick is delayed
	// by a deterministic duration in (0, Delay].
	TickDelay float64
	// Delay bounds an injected tick delay. Zero with TickDelay > 0
	// defaults to 1ms.
	Delay time.Duration
	// CheckpointFail is the probability that a checkpoint write attempt
	// fails (keyed on the attempt sequence number).
	CheckpointFail float64
	// Corrupt is the probability that Corrupt flips a byte of the buffer
	// it is offered (keyed on the caller's site key).
	Corrupt float64
}

// Injector makes deterministic fault decisions from a Faults spec. The
// zero value injects nothing. Injector is stateless and safe for
// concurrent use from any number of goroutines.
type Injector struct {
	f Faults
}

// New builds an Injector for the given fault spec.
func New(f Faults) *Injector {
	if f.TickDelay > 0 && f.Delay <= 0 {
		f.Delay = time.Millisecond
	}
	return &Injector{f: f}
}

// Faults returns the injector's spec.
func (in *Injector) Faults() Faults { return in.f }

// Panic is the value an injected tick panic carries, so tests (and
// quarantine records) can recognize injected faults and their site.
type Panic struct {
	Net, Tick int
}

func (p Panic) String() string {
	return fmt.Sprintf("chaos: injected panic at net %d tick %d", p.Net, p.Tick)
}

// Tick injects this site's tick faults: it panics with a Panic value
// when the site draws a panic, and sleeps the site's deterministic
// delay when it draws a delay. Its signature matches the fleet
// TickHook, so wiring chaos into a fleet is one assignment.
func (in *Injector) Tick(net, tick int) {
	if d := in.DelayAt(net, tick); d > 0 {
		time.Sleep(d)
	}
	if in.PanicsAt(net, tick) {
		panic(Panic{Net: net, Tick: tick})
	}
}

// PanicsAt reports whether the (net, tick) site draws an injected
// panic — the prediction tests use to derive the expected casualty set.
func (in *Injector) PanicsAt(net, tick int) bool {
	return in.decide(domTickPanic, uint64(net), uint64(tick)) < in.f.TickPanic
}

// DelayAt returns the deterministic delay injected at (net, tick), or
// zero when the site draws none.
func (in *Injector) DelayAt(net, tick int) time.Duration {
	if in.f.TickDelay <= 0 {
		return 0
	}
	u := in.decide(domTickDelay, uint64(net), uint64(tick))
	if u >= in.f.TickDelay {
		return 0
	}
	// Rescale the sub-threshold draw to (0, Delay] so the delay length
	// is itself deterministic per site.
	frac := u / in.f.TickDelay
	d := time.Duration(frac * float64(in.f.Delay))
	if d <= 0 {
		d = 1
	}
	return d
}

// FailCheckpoint reports whether checkpoint write attempt seq should
// fail.
func (in *Injector) FailCheckpoint(seq uint64) bool {
	return in.decide(domCkptFail, seq, 0) < in.f.CheckpointFail
}

// CorruptAt reports whether the buffer keyed by key draws corruption,
// and if so which byte index of a buffer of length n to flip.
func (in *Injector) CorruptAt(key uint64, n int) (int, bool) {
	if n <= 0 || in.decide(domCorrupt, key, 0) >= in.f.Corrupt {
		return 0, false
	}
	return int(hash(in.f.Seed, domCorrupt, key, 1) % uint64(n)), true
}

// Corrupt flips one deterministic byte of data when the site keyed by
// key draws corruption, reporting the flipped index.
func (in *Injector) Corrupt(key uint64, data []byte) (int, bool) {
	i, ok := in.CorruptAt(key, len(data))
	if ok {
		data[i] ^= 0xFF
	}
	return i, ok
}

// FlipByte unconditionally flips one seed-chosen byte of data and
// returns its index — the primitive the checkpoint generation-fallback
// tests use to damage exactly one on-disk generation. It panics on an
// empty buffer.
func FlipByte(seed uint64, data []byte) int {
	if len(data) == 0 {
		panic("chaos: FlipByte on empty buffer")
	}
	i := int(hash(seed, domCorrupt, 0, 2) % uint64(len(data)))
	data[i] ^= 0xFF
	return i
}

// decide maps a fault site to a uniform draw in [0, 1).
func (in *Injector) decide(domain, a, b uint64) float64 {
	return float64(hash(in.f.Seed, domain, a, b)>>11) / float64(1<<53)
}

// hash is a splitmix64 finalization over the folded site coordinates.
// It is the package's single source of randomness.
func hash(seed, domain, a, b uint64) uint64 {
	x := seed
	for _, v := range [...]uint64{domain, a, b} {
		x ^= v + 0x9e3779b97f4a7c15
		x = mix(x)
	}
	return mix(x)
}

func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Parse decodes a -chaos flag spec: comma-separated key=value pairs
// over the keys seed, panic, delay, delaymax, ckpt and corrupt, e.g.
//
//	seed=7,panic=0.02,delay=0.1,delaymax=5ms
//
// Probabilities must be in [0, 1]; delaymax takes a Go duration. An
// empty spec yields the zero (no-op) Faults.
func Parse(spec string) (Faults, error) {
	var f Faults
	if strings.TrimSpace(spec) == "" {
		return f, nil
	}
	for _, part := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return Faults{}, fmt.Errorf("chaos: bad spec element %q (want key=value)", part)
		}
		var err error
		switch key {
		case "seed":
			f.Seed, err = strconv.ParseUint(val, 10, 64)
		case "panic":
			f.TickPanic, err = parseProb(val)
		case "delay":
			f.TickDelay, err = parseProb(val)
		case "delaymax":
			f.Delay, err = time.ParseDuration(val)
		case "ckpt":
			f.CheckpointFail, err = parseProb(val)
		case "corrupt":
			f.Corrupt, err = parseProb(val)
		default:
			return Faults{}, fmt.Errorf("chaos: unknown spec key %q", key)
		}
		if err != nil {
			return Faults{}, fmt.Errorf("chaos: bad value for %q: %v", key, err)
		}
	}
	return f, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v outside [0, 1]", p)
	}
	return p, nil
}
