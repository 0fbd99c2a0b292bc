// Command benchguard parses `go test -bench` output and gates benchmark
// regressions in CI.
//
// Parse mode converts benchmark text into a JSON report of ns/op — plus
// B/op and allocs/op where the benchmark ran with -benchmem or
// b.ReportAllocs() — per benchmark (CPU-count suffixes stripped, so
// names are stable across machines). With -count=N each benchmark's
// ns/op is the median of its N samples and its B/op and allocs/op the
// maximum:
//
//	go test -run=- -bench=. -benchtime=1x . | tee bench.out
//	benchguard -parse bench.out -out current.json
//
// Check mode compares a current report against a committed baseline and
// exits non-zero if any tracked benchmark regressed beyond the
// tolerance, a tracked benchmark disappeared, a required speedup ratio
// (grid vs naive, parallel vs serial) is no longer met, or an
// allocation ceiling (allocs/op or B/op) is exceeded:
//
//	benchguard -check -baseline BENCH_PR10.json -current current.json
//
// The baseline's absolute ns/op values are machine-dependent — regenerate
// them (parse mode writes the same schema) when the CI runner class
// changes. The ratio checks compare two benchmarks from the same run and
// the allocation ceilings count deterministic allocator traffic; both are
// machine-independent and are the stronger guards.
//
// Under GitHub Actions, check mode additionally appends a markdown
// results table to $GITHUB_STEP_SUMMARY and emits an ::error workflow
// annotation per failed check naming the benchmark and the violated
// gate, so a red bench job is readable from the run page without
// downloading artifacts.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Report is the JSON schema shared by baselines and current runs.
type Report struct {
	// Note is free-form provenance (machine, date, command).
	Note string `json:"note,omitempty"`
	// Tolerance is the allowed relative regression for tracked
	// benchmarks (0.30 = 30%). Only read from baselines; a -tolerance
	// flag or BENCHGUARD_TOLERANCE env var overrides it.
	Tolerance float64 `json:"tolerance,omitempty"`
	// Benchmarks maps benchmark name (without -cpu suffix) to ns/op.
	Benchmarks map[string]float64 `json:"benchmarks"`
	// Bytes and Allocs map benchmark name to B/op and allocs/op, for
	// benchmarks that report them. Unlike ns/op these are deterministic
	// properties of the code, not the machine.
	Bytes  map[string]float64 `json:"bytes,omitempty"`
	Allocs map[string]float64 `json:"allocs,omitempty"`
	// Ratios are required speedups between two benchmarks of the same
	// run. Only read from baselines.
	Ratios []RatioCheck `json:"ratios,omitempty"`
	// Improvements are required speedups of the current run against a
	// frozen measurement from an earlier PR's baseline (carried inside
	// this baseline as BaselineNS). They encode "this PR's win must not
	// erode" where no same-run reference benchmark exists. Only read
	// from baselines.
	Improvements []ImprovementCheck `json:"improvements,omitempty"`
	// AllocCeilings and ByteCeilings cap the current run's allocs/op and
	// B/op per benchmark. Only read from baselines; they encode "the
	// allocation win must not erode" as a hard machine-independent gate.
	AllocCeilings map[string]float64 `json:"alloc_ceilings,omitempty"`
	ByteCeilings  map[string]float64 `json:"byte_ceilings,omitempty"`
}

// ImprovementCheck requires BaselineNS / current[Bench] ≥ Min: the
// current run must stay at least Min× faster than a measurement frozen
// from an earlier PR (e.g. the PR 4 COW snapshot against the PR 3
// full-clone snapshot time). Like the absolute gates it assumes the CI
// runner class; regenerate BaselineNS alongside the baseline when the
// runner changes.
type ImprovementCheck struct {
	Bench      string  `json:"bench"`
	BaselineNS float64 `json:"baseline_ns"`
	Min        float64 `json:"min"`
	// Note is free-form provenance for the frozen measurement.
	Note string `json:"note,omitempty"`
}

// RatioCheck requires Slow/Fast ≥ Min in the current run — e.g. the
// naive oracle must stay at least 5× slower than the grid oracle, or the
// serial oracle at least 3× slower than its 8-worker variant.
type RatioCheck struct {
	Slow string  `json:"slow"`
	Fast string  `json:"fast"`
	Min  float64 `json:"min"`
	// MinCores marks a ratio that only holds on sufficiently parallel
	// hardware (the parallel-vs-serial speedups). On machines with fewer
	// cores the check is reported as skipped instead of failed, so the
	// baseline can be regenerated anywhere while the CI runner class
	// still enforces the floor.
	MinCores int `json:"min_cores,omitempty"`
}

// benchLine matches one `go test -bench` result line, optionally with
// the -benchmem columns, e.g.
//
//	BenchmarkLargeN/uniform-5000/oracle/grid-8   3   22612579 ns/op   1198 B/op   22 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([0-9.e+]+) ns/op(?:.*?\s([0-9]+) B/op)?(?:\s+([0-9]+) allocs/op)?`)

func main() {
	var (
		parse     = flag.String("parse", "", "parse `go test -bench` output from this file ('-' for stdin)")
		out       = flag.String("out", "", "write the parsed report to this file (default stdout)")
		note      = flag.String("note", "", "provenance note to embed in the parsed report")
		check     = flag.Bool("check", false, "compare -current against -baseline")
		baseline  = flag.String("baseline", "", "committed baseline report")
		current   = flag.String("current", "", "report from the current run")
		tolerance = flag.Float64("tolerance", 0, "override the baseline's regression tolerance (0.30 = 30%)")
	)
	flag.Parse()
	switch {
	case *parse != "":
		if err := runParse(*parse, *out, *note); err != nil {
			fatal(err)
		}
	case *check:
		if err := runCheck(*baseline, *current, *tolerance); err != nil {
			fatal(err)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}

func runParse(in, out, note string) error {
	f := os.Stdin
	if in != "-" {
		var err error
		if f, err = os.Open(in); err != nil {
			return err
		}
		defer f.Close()
	}
	rep, err := parseReport(f, note)
	if err != nil {
		return err
	}
	if len(rep.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark results found in %s", in)
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	if out == "" {
		_, err = os.Stdout.Write(enc)
		return err
	}
	return os.WriteFile(out, enc, 0o644)
}

// parseReport reads `go test -bench` output. A benchmark that appears on
// several lines (-count=N) is recorded as the median of its ns/op
// samples, so one noisy iteration cannot move a gate; its B/op and
// allocs/op are the maximum over the samples, so the ceilings never get
// looser than the worst run.
func parseReport(r io.Reader, note string) (*Report, error) {
	rep := &Report{
		Note:       note,
		Benchmarks: map[string]float64{},
		Bytes:      map[string]float64{},
		Allocs:     map[string]float64{},
	}
	samples := map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		mm := benchLine.FindStringSubmatch(sc.Text())
		if mm == nil {
			continue
		}
		ns, err := strconv.ParseFloat(mm[2], 64)
		if err != nil {
			return nil, fmt.Errorf("line %q: %v", sc.Text(), err)
		}
		samples[mm[1]] = append(samples[mm[1]], ns)
		if err := keepMax(rep.Bytes, mm[1], mm[3]); err != nil {
			return nil, fmt.Errorf("line %q: %v", sc.Text(), err)
		}
		if err := keepMax(rep.Allocs, mm[1], mm[4]); err != nil {
			return nil, fmt.Errorf("line %q: %v", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, ns := range samples {
		rep.Benchmarks[name] = median(ns)
	}
	return rep, nil
}

// keepMax records the parsed value of text under name in dst unless dst
// already holds a larger one. An empty text (the column was not
// reported) records nothing.
func keepMax(dst map[string]float64, name, text string) error {
	if text == "" {
		return nil
	}
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		return err
	}
	if old, ok := dst[name]; !ok || v > old {
		dst[name] = v
	}
	return nil
}

// median returns the middle sample (the mean of the two middle samples
// for an even count). It sorts xs in place.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 0 {
		return (xs[mid-1] + xs[mid]) / 2
	}
	return xs[mid]
}

func readReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &rep, nil
}

func runCheck(basePath, curPath string, tolOverride float64) error {
	if basePath == "" || curPath == "" {
		return fmt.Errorf("-check needs both -baseline and -current")
	}
	base, err := readReport(basePath)
	if err != nil {
		return err
	}
	cur, err := readReport(curPath)
	if err != nil {
		return err
	}
	tol := base.Tolerance
	if env := os.Getenv("BENCHGUARD_TOLERANCE"); env != "" {
		if v, err := strconv.ParseFloat(env, 64); err == nil {
			tol = v
		}
	}
	if tolOverride > 0 {
		tol = tolOverride
	}
	if tol <= 0 {
		tol = 0.30
	}

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var rows []checkRow
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := cur.Benchmarks[name]
		switch {
		case !ok:
			rows = append(rows, checkRow{"MISSING", "benchmark", name,
				"tracked benchmark not in current run", true})
		case got > want*(1+tol):
			rows = append(rows, checkRow{"REGRESS", "benchmark", name,
				fmt.Sprintf("%.0f ns/op -> %.0f ns/op (%+.1f%%, tolerance %.0f%%)",
					want, got, 100*(got/want-1), 100*tol), true})
		default:
			rows = append(rows, checkRow{"ok", "benchmark", name,
				fmt.Sprintf("%.0f ns/op -> %.0f ns/op (%+.1f%%)", want, got, 100*(got/want-1)), false})
		}
	}
	for _, rc := range base.Ratios {
		name := rc.Slow + " / " + rc.Fast
		if rc.MinCores > runtime.NumCPU() {
			rows = append(rows, checkRow{"skip", "ratio", name,
				fmt.Sprintf("needs >= %d cores, have %d", rc.MinCores, runtime.NumCPU()), false})
			continue
		}
		slow, okS := cur.Benchmarks[rc.Slow]
		fast, okF := cur.Benchmarks[rc.Fast]
		switch {
		case !okS || !okF:
			rows = append(rows, checkRow{"MISSING", "ratio", name,
				"benchmark absent from current run", true})
		case fast <= 0 || slow/fast < rc.Min:
			rows = append(rows, checkRow{"RATIO", "ratio", name,
				fmt.Sprintf("%.1fx, need >= %.1fx", slow/fast, rc.Min), true})
		default:
			rows = append(rows, checkRow{"ok", "ratio", name,
				fmt.Sprintf("%.1fx (>= %.1fx)", slow/fast, rc.Min), false})
		}
	}
	for _, ic := range base.Improvements {
		got, ok := cur.Benchmarks[ic.Bench]
		switch {
		case !ok:
			rows = append(rows, checkRow{"MISSING", "improvement", ic.Bench,
				"benchmark absent from current run", true})
		case got <= 0 || ic.BaselineNS/got < ic.Min:
			rows = append(rows, checkRow{"IMPROVE", "improvement", ic.Bench,
				fmt.Sprintf("%.1fx over frozen %.0f ns/op, need >= %.1fx",
					ic.BaselineNS/got, ic.BaselineNS, ic.Min), true})
		default:
			rows = append(rows, checkRow{"ok", "improvement", ic.Bench,
				fmt.Sprintf("%.1fx over frozen %.0f ns/op (>= %.1fx)",
					ic.BaselineNS/got, ic.BaselineNS, ic.Min), false})
		}
	}
	rows = append(rows, checkCeilings("allocs/op", base.AllocCeilings, cur.Allocs)...)
	rows = append(rows, checkCeilings("B/op", base.ByteCeilings, cur.Bytes)...)

	failures := 0
	for _, row := range rows {
		fmt.Printf("%-8s %-11s %-55s %s\n", row.status, row.kind, row.name, row.detail)
		if row.failed {
			failures++
		}
	}
	if err := writeStepSummary(rows, failures); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard: step summary:", err)
	}
	emitAnnotations(rows)
	if failures > 0 {
		return fmt.Errorf("%d benchmark check(s) failed", failures)
	}
	fmt.Printf("all %d tracked benchmarks, %d ratios, %d improvements and %d ceilings within tolerance\n",
		len(names), len(base.Ratios), len(base.Improvements), len(base.AllocCeilings)+len(base.ByteCeilings))
	return nil
}

// checkRow is one gate evaluation: the stdout line, the step-summary
// table row, and (when failed) the workflow annotation all render from
// it.
type checkRow struct {
	// status is "ok", "skip", or the failure class (MISSING, REGRESS,
	// RATIO, IMPROVE, CEILING).
	status string
	// kind names the gate family: benchmark, ratio, improvement,
	// allocs/op, B/op.
	kind string
	// name identifies the benchmark (or slow/fast pair) gated.
	name string
	// detail is the human-readable measurement vs limit.
	detail string
	failed bool
}

// checkCeilings enforces per-benchmark upper bounds on a deterministic
// metric (allocs/op or B/op).
func checkCeilings(unit string, ceilings map[string]float64, current map[string]float64) []checkRow {
	names := make([]string, 0, len(ceilings))
	for name := range ceilings {
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]checkRow, 0, len(names))
	for _, name := range names {
		limit := ceilings[name]
		got, ok := current[name]
		switch {
		case !ok:
			rows = append(rows, checkRow{"MISSING", unit, name,
				fmt.Sprintf("no %s reported in current run", unit), true})
		case got > limit:
			rows = append(rows, checkRow{"CEILING", unit, name,
				fmt.Sprintf("%.0f %s, limit %.0f", got, unit, limit), true})
		default:
			rows = append(rows, checkRow{"ok", unit, name,
				fmt.Sprintf("%.0f %s (limit %.0f)", got, unit, limit), false})
		}
	}
	return rows
}

// writeStepSummary appends a markdown results table to the file named
// by $GITHUB_STEP_SUMMARY (the GitHub Actions job summary). Outside
// Actions the variable is unset and this is a no-op.
func writeStepSummary(rows []checkRow, failures int) error {
	path := os.Getenv("GITHUB_STEP_SUMMARY")
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	var b strings.Builder
	if failures == 0 {
		fmt.Fprintf(&b, "### benchguard: all %d checks passed ✅\n\n", len(rows))
	} else {
		fmt.Fprintf(&b, "### benchguard: %d of %d checks failed ❌\n\n", failures, len(rows))
	}
	b.WriteString("| status | check | benchmark | result |\n|---|---|---|---|\n")
	for _, row := range rows {
		status := row.status
		if row.failed {
			status = "**" + status + "**"
		}
		fmt.Fprintf(&b, "| %s | %s | `%s` | %s |\n",
			status, row.kind, row.name, mdEscape(row.detail))
	}
	b.WriteByte('\n')
	_, err = f.WriteString(b.String())
	return err
}

// emitAnnotations prints one ::error workflow command per failed check,
// so the failure names the benchmark and the violated gate directly on
// the run page. Only active under GitHub Actions.
func emitAnnotations(rows []checkRow) {
	if os.Getenv("GITHUB_ACTIONS") != "true" {
		return
	}
	for _, row := range rows {
		if !row.failed {
			continue
		}
		fmt.Printf("::error title=benchguard %s %s::%s: %s\n",
			row.status, row.kind, annEscape(row.name), annEscape(row.detail))
	}
}

// annEscape escapes a workflow-command value per the Actions toolkit
// rules (%, CR and LF must be URL-encoded).
func annEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

// mdEscape keeps table cells from breaking the summary's markdown grid.
func mdEscape(s string) string {
	return strings.ReplaceAll(s, "|", "\\|")
}
