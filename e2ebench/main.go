// Command e2ebench is the repository's end-to-end benchmark. One run
// executes one named workload from a seed, checks the program's outputs
// outside the timed region, and prints as its last line a JSON object
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1, a separate traced run). See README.md for the workloads,
// the metrics and why each workload was chosen.
//
//	go run . --workload bulk --seed 1 --seconds 25 --trace 0
//	go run . --compare base.out head.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*run) error{
	"bulk":      runBulk,
	"cartesian": runCartesian,
	"serve":     runServe,
	"design":    runDesign,
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: bulk, cartesian, serve or design")
	seed := fs.Int64("seed", 1, "input seed; the same seed gives byte-identical inputs")
	seconds := fs.Float64("seconds", 10, "measured duration of the timed loop")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	work := fs.String("work", filepath.Join(".bench_build", "work"), "directory for sink output and spans")
	compare := fs.Bool("compare", false, "compare two saved outputs (base, head) against BENCHMARK.json bounds")
	spec := fs.String("spec", "BENCHMARK.json", "benchmark definition read by -compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "e2ebench -compare base.out head.out")
			return 2
		}
		return runCompare(*spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench --workload bulk|cartesian|serve|design --seed N --seconds S --trace 0|1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	dir, err := os.MkdirTemp(*work, *name+"-")
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	defer os.RemoveAll(dir)

	r := newRun(*name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, dir, stdout, stderr)
	fp := fingerprint()
	fpJSON, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpJSON)
	fmt.Fprintf(stdout, "run {\"workload\":%q,\"seed\":%d,\"seconds\":%g,\"trace\":%d}\n", *name, *seed, *seconds, *trace)
	steal0, total0 := hostSteal()
	if err := fn(r); err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	if steal1, total1 := hostSteal(); total1 > total0 {
		fmt.Fprintf(stdout, "host steal %.1f%% of processor time during the run\n",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	if r.tr != nil {
		path := filepath.Join(*work, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		if err := r.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "e2ebench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %d written to %s\n", len(r.tr.spans), path)
	}
	return r.report()
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of every run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the state of one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	dir      string
	tr       *tracer // nil unless --trace 1
	out      io.Writer
	log      io.Writer

	attempted, failed int64
	metrics           map[string]metric
	notes             []string // per-layer metrics that could not be measured, and why
}

func newRun(name string, seed int64, seconds time.Duration, traced bool, dir string, out, log io.Writer) *run {
	r := &run{
		workload: name, seed: seed, seconds: seconds, dir: dir,
		out: out, log: log, metrics: map[string]metric{},
	}
	if traced {
		r.tr = newTracer()
	}
	return r
}

// fail counts one failed, refused or wrong operation.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if r.failed <= 20 {
		fmt.Fprintf(r.log, "FAIL: "+format+"\n", args...)
	}
}

// set records a metric. End-to-end metrics are set only by untraced runs
// and per-layer metrics only by traced runs, so the two never mix.
func (r *run) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// report prints a human-readable table, then the JSON result line, and
// returns the exit code.
func (r *run) report() int {
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(r.out, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(r.out, "  note: %s\n", n)
	}
	if r.attempted < 1 {
		r.attempted = 1
		r.failed++
	}
	// fail_ratio is 0 on every healthy run, so it is a per-layer metric of
	// the traced run; every result carries its parts, failed and attempted.
	ratio := float64(r.failed) / float64(r.attempted)
	if r.tr != nil {
		r.set("fail_ratio", "ratio", ratio)
	}
	fmt.Fprintf(r.out, "fail_ratio %.6g (%d failed of %d attempted)\n", ratio, r.failed, r.attempted)
	line, err := json.Marshal(result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
	})
	if err != nil {
		fmt.Fprintf(r.log, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(r.out, "%s\n", line)
	// A printed result is a completed run: failures are reported through
	// "correct" and "failed", not the exit code.
	return 0
}

// machine is the fingerprint recorded with every result; -compare refuses
// to compare results whose fingerprints differ.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

func fingerprint() machine {
	m := machine{CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}
