package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"xkprop/internal/core"
	"xkprop/internal/rel"
	"xkprop/internal/workload"
)

// RunXkbench regenerates the paper's experiment series (§6, Fig 7).
func RunXkbench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("xkbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "all", "which figure to regenerate: 7a, 7b, 7c, extremes, all")
	reps := fs.Int("reps", 3, "repetitions per data point (min time reported)")
	naiveMax := fs.Int("naive-max", 15, "largest field count for the naive baseline")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file at exit")
	suite := fs.String("suite", "pathkernel", "benchmark suite for -json/no-fig runs: pathkernel (§6 minimum-cover grid), fdclosure (FD-closure micro-grid), shred (streaming shredding data plane), or tokenizer (zero-copy tokenizer vs encoding/xml)")
	jsonOut := fs.String("json", "", "run the selected -suite via testing.Benchmark and write a JSON report to this file (skips -fig)")
	checkJSON := fs.String("check-json", "", "apply a suite JSON report's gate table to it and exit")
	checkAgainst := fs.String("check-against", "", "re-run the points of a suite JSON report and fail on >25% ns/op regression (same machine, Go version and GOMAXPROCS only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *checkJSON != "" {
		rep, s, err := readBenchReport(*checkJSON)
		if err == nil {
			err = s.check(rep)
		}
		if err != nil {
			fmt.Fprintf(stderr, "xkbench: %s: %v\n", *checkJSON, err)
			return 1
		}
		fmt.Fprintf(stdout, "xkbench: %s OK\n", *checkJSON)
		return 0
	}

	if *checkAgainst != "" {
		if err := checkBenchAgainst(stdout, *checkAgainst); err != nil {
			fmt.Fprintf(stderr, "xkbench: %v\n", err)
			return 1
		}
		return 0
	}

	s, ok := benchSuites[*suite]
	if !ok {
		fmt.Fprintf(stderr, "xkbench: unknown suite %q (want pathkernel, fdclosure, shred, or tokenizer)\n", *suite)
		return 2
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return fail(stderr, "xkbench", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(stderr, "xkbench", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(stderr, "xkbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "xkbench: %v\n", err)
			}
		}()
	}

	// The pathkernel suite prints as the §6 figures; the others print
	// their points.
	if *jsonOut != "" || s.name != "pathkernel" {
		rep, err := benchRun(stdout, s.name, s.cells())
		if err == nil && *jsonOut != "" {
			err = writeBenchReport(*jsonOut, s, rep)
		}
		if err != nil {
			return fail(stderr, "xkbench", err)
		}
		return 0
	}

	switch *fig {
	case "7a":
		benchFig7a(stdout, *reps, *naiveMax)
	case "7b":
		benchFig7b(stdout, *reps)
	case "7c":
		benchFig7c(stdout, *reps)
	case "extremes":
		benchExtremes(stdout, *reps)
	case "all":
		benchFig7a(stdout, *reps, *naiveMax)
		benchFig7b(stdout, *reps)
		benchFig7c(stdout, *reps)
		benchExtremes(stdout, *reps)
	default:
		fmt.Fprintf(stderr, "xkbench: unknown figure %q\n", *fig)
		return 2
	}
	return 0
}

// pathkernelMaxFields caps the pathkernel suite's §6 grid at the field
// counts BENCH_pathkernel.json records.
const pathkernelMaxFields = 100

// pathkernelSinkFDs keeps the compiler from eliding the benchmark body.
var pathkernelSinkFDs []rel.FD

// pathkernelSuite measures minimum cover over the §6 grid. Its gate
// table is empty: the gates every suite shares are its only gates.
var pathkernelSuite = benchSuite{name: "pathkernel", cells: pathkernelCells}

func pathkernelCells() []benchCell {
	var cells []benchCell
	for _, cfg := range workload.Sec6Grid(pathkernelMaxFields) {
		cells = append(cells, benchCell{
			name:   fmt.Sprintf("MinimumCover/fields=%d/depth=%d/keys=%d", cfg.Fields, cfg.Depth, cfg.Keys),
			params: []benchVal{{"fields", cfg.Fields}, {"depth", cfg.Depth}, {"keys", cfg.Keys}},
			setup: func() ([]benchVal, func(*testing.B), error) {
				wl := workload.Generate(cfg)
				cover := core.NewEngine(wl.Sigma, wl.Rule).MinimumCover()
				return []benchVal{{"cover_size", len(cover)}}, func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						pathkernelSinkFDs = core.NewEngine(wl.Sigma, wl.Rule).MinimumCover()
					}
				}, nil
			},
		})
	}
	return cells
}

// benchMeasure runs f reps times and returns the minimum wall time.
func benchMeasure(reps int, f func()) time.Duration {
	best := time.Duration(0)
	for i := 0; i < reps; i++ {
		start := time.Now()
		f()
		d := time.Since(start)
		if i == 0 || d < best {
			best = d
		}
	}
	return best
}

func benchFig7a(w io.Writer, reps, naiveMax int) {
	fmt.Fprintln(w, "Fig 7(a): time for computing minimum cover (depth=5, keys=10)")
	fmt.Fprintf(w, "%8s  %14s  %14s  %8s\n", "fields", "minimumCover", "naive", "|cover|")
	for _, fields := range []int{10, 15, 20, 50, 100, 200, 500} {
		wl := workload.Generate(workload.Config{Fields: fields, Depth: 5, Keys: 10})
		var cover []rel.FD
		tMin := benchMeasure(reps, func() {
			cover = core.NewEngine(wl.Sigma, wl.Rule).MinimumCover()
		})
		naiveCell := "skipped"
		if fields <= naiveMax {
			var ncover []rel.FD
			tNaive := benchMeasure(1, func() {
				ncover = core.NewEngine(wl.Sigma, wl.Rule).NaiveCover()
			})
			naiveCell = benchDur(tNaive)
			if !rel.EquivalentCovers(cover, ncover) {
				fmt.Fprintln(w, "  WARNING: covers differ!")
			}
		}
		fmt.Fprintf(w, "%8d  %14s  %14s  %8d\n", fields, benchDur(tMin), naiveCell, len(cover))
	}
	fmt.Fprintln(w)
}

func benchFig7b(w io.Writer, reps int) {
	fmt.Fprintln(w, "Fig 7(b): effect of table-tree depth (fields=15, keys=10)")
	fmt.Fprintf(w, "%8s  %14s  %16s\n", "depth", "propagation", "GminimumCover")
	for depth := 2; depth <= 10; depth++ {
		wl := workload.Generate(workload.Config{Fields: 15, Depth: depth, Keys: 10})
		tProp := benchMeasure(reps, func() {
			if !core.NewEngine(wl.Sigma, wl.Rule).Propagates(wl.ProbeTrue) {
				panic("probe must propagate")
			}
		})
		tG := benchMeasure(reps, func() {
			if !core.NewEngine(wl.Sigma, wl.Rule).GPropagates(wl.ProbeTrue) {
				panic("probe must propagate")
			}
		})
		fmt.Fprintf(w, "%8d  %14s  %16s\n", depth, benchDur(tProp), benchDur(tG))
	}
	fmt.Fprintln(w)
}

func benchFig7c(w io.Writer, reps int) {
	fmt.Fprintln(w, "Fig 7(c): effect of number of keys (fields=15, depth=5)")
	fmt.Fprintf(w, "%8s  %14s  %16s\n", "keys", "propagation", "GminimumCover")
	for _, keys := range []int{10, 20, 30, 40, 50, 75, 100} {
		wl := workload.Generate(workload.Config{Fields: 15, Depth: 5, Keys: keys})
		tProp := benchMeasure(reps, func() {
			if !core.NewEngine(wl.Sigma, wl.Rule).Propagates(wl.ProbeTrue) {
				panic("probe must propagate")
			}
		})
		tG := benchMeasure(reps, func() {
			if !core.NewEngine(wl.Sigma, wl.Rule).GPropagates(wl.ProbeTrue) {
				panic("probe must propagate")
			}
		})
		fmt.Fprintf(w, "%8d  %14s  %16s\n", keys, benchDur(tProp), benchDur(tG))
	}
	fmt.Fprintln(w)
}

func benchExtremes(w io.Writer, reps int) {
	fmt.Fprintln(w, "§6 extremes: propagation at 1000 fields (Oracle's column limit)")
	fmt.Fprintf(w, "%8s  %8s  %14s\n", "fields", "keys", "propagation")
	for _, keys := range []int{50, 100} {
		wl := workload.Generate(workload.Config{Fields: 1000, Depth: 10, Keys: keys})
		tProp := benchMeasure(reps, func() {
			if !core.NewEngine(wl.Sigma, wl.Rule).Propagates(wl.ProbeTrue) {
				panic("probe must propagate")
			}
		})
		fmt.Fprintf(w, "%8d  %8d  %14s\n", 1000, keys, benchDur(tProp))
	}
	fmt.Fprintln(w)
}

func benchDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
