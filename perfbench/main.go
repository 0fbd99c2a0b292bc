// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks that the program's outputs are
// correct, and prints one JSON result line.
//
//	perfbench -fleetd BIN -workdir DIR [-spec BENCHMARK.json] --workload NAME --seed N --seconds S --trace 0|1
//
// ingest-light drives a real fleetd binary over loopback HTTP;
// paper-sweep calls the library in process. With --trace 0 the result
// holds the end-to-end metrics; with --trace 1 it holds the per-layer
// metrics, taken from spans recorded around every call the benchmark
// makes into a layer. Spans are written to DIR/traces when the run
// ends. perfbench/run.sh builds both binaries and runs this command.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"syscall"
	"time"
)

// runEnv is what every workload run receives.
type runEnv struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	tracer  *tracer // nil unless trace
	fleetd  string  // fleetd binary
	workdir string  // work directory inside the checkout
}

type workloadRunner interface {
	run(ctx context.Context, env runEnv) (*result, error)
}

// workloads are the benchmark's named workloads; BENCHMARK.json records
// why each was chosen.
var workloads = map[string]workloadRunner{
	"ingest-light": ingestWorkload{m: 4, n: 250, burst: 8, ckptIvl: 30 * time.Second, setups: 15},
	"paper-sweep":  sweepWorkload{pool: 4096, setups: 15, block: 16},
}

// spec is the part of BENCHMARK.json a run needs: the metric names it
// must print, with their units.
type spec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(b, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &sp, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome.
type result struct {
	attempted, failed int
	checks            []string // failed correctness checks
	metrics           map[string]float64
	layers            map[string]float64
}

func (r *result) metric(name string, v float64) {
	if r.metrics == nil {
		r.metrics = make(map[string]float64)
	}
	r.metrics[name] = v
}

func (r *result) layer(name string, v float64) {
	if r.layers == nil {
		r.layers = make(map[string]float64)
	}
	r.layers[name] = v
}

func (r *result) addCheck(what string, err error) {
	if err != nil {
		r.checks = append(r.checks, what+": "+err.Error())
	}
}

func (r *result) failedChecks() bool { return len(r.checks) > 0 }

type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
		fleetd  = flag.String("fleetd", "", "fleetd binary")
		workdir = flag.String("workdir", "", "work directory for daemon temp dirs and traces")
		specF   = flag.String("spec", "BENCHMARK.json", "benchmark definition naming the metrics to print")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *fleetd, *workdir, *specF); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, fleetd, workdir, specPath string) error {
	sp, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	w, ok := workloads[name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		slices.Sort(names)
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	if seconds < 1 || (trace != 0 && trace != 1) || fleetd == "" || workdir == "" {
		return errors.New("need --seconds ≥ 1, --trace 0|1, -fleetd and -workdir")
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	env := runEnv{seed: seed, seconds: time.Duration(seconds) * time.Second, trace: trace == 1, fleetd: fleetd, workdir: workdir}
	if env.trace {
		env.tracer = newTracer()
	}
	res, err := w.run(ctx, env)
	if err != nil {
		return err
	}

	out := output{Correct: !res.failedChecks(), Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	if env.trace {
		// A workload that bypasses a layer reports that layer's metrics
		// as 0; a metric the benchmark does not declare is a bug.
		for n := range res.layers {
			if !slices.ContainsFunc(sp.PerLayer, func(m metricDef) bool { return m.Name == n }) {
				return fmt.Errorf("workload %s measured undeclared per-layer metric %s", name, n)
			}
		}
		for _, m := range sp.PerLayer {
			out.Metrics[m.Name] = metricValue{res.layers[m.Name], m.Unit}
		}
		spans := env.tracer.snapshot()
		dir := filepath.Join(workdir, "traces")
		path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if err := writeSpans(path, spans); err != nil {
			return err
		}
		printSelfTimes(path, spans)
	} else {
		for _, m := range sp.EndToEnd {
			v, ok := res.metrics[m.Name]
			if !ok {
				return fmt.Errorf("workload %s did not measure %s", name, m.Name)
			}
			out.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	}
	for _, c := range res.checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !out.Correct {
		return errors.New("correctness gate failed")
	}
	return nil
}

// printSelfTimes writes the per-span-name self time table to stderr.
func printSelfTimes(path string, spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	var total int64
	for n, v := range self {
		names = append(names, n)
		total += v
	}
	slices.SortFunc(names, func(a, b string) int { return int(self[b] - self[a]) })
	fmt.Fprintf(os.Stderr, "perfbench: %d spans in %s; self time by span:\n", len(spans), path)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-28s %10.1f ms  %5.1f%%\n", n, float64(self[n])/1e6, 100*float64(self[n])/float64(max(total, 1)))
	}
}
