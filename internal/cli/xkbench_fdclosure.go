package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"xkprop/internal/rel"
)

// This file implements xkbench's fdclosure suite: a micro-grid over the
// relational FD closure hot path, comparing the retained textbook
// fixpoint (rel.Closure) against the indexed LINCLOSURE engine
// (rel.FDIndex.Closure) on cascade workloads, plus the two consumers
// that sit directly on top of it (Minimize and CandidateKeys). The grid
// sweeps fields × fds × LHS width; workloads are seeded so two runs on
// the same code measure the same instances, which is what makes
// -check-against's point-by-point comparison meaningful.

// fdclosureSeed pins the workload generator. Changing it invalidates
// committed BENCH_fdclosure.json baselines for -check-against.
const fdclosureSeed = 42

// fdclosurePoint is one (config, op) measurement.
type fdclosurePoint struct {
	Name        string  `json:"name"`
	Fields      int     `json:"fields"`
	FDs         int     `json:"fds"`
	LHSWidth    int     `json:"lhsw"`
	Op          string  `json:"op"` // closure_fixpoint, closure_indexed, mincover, candkeys
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// fdclosureReport is the top-level JSON document (suite "fdclosure").
type fdclosureReport struct {
	Suite      string           `json:"suite"`
	GoVersion  string           `json:"go"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Points     []fdclosurePoint `json:"points"`
}

// fdclosureConfig is one grid cell.
type fdclosureConfig struct {
	fields, fds, lhsw int
}

// fdclosureGrid is the published micro-grid: both attribute universes
// cross the 64-bit word boundary (two and three AttrSet words), FD
// counts from trivial to well past the ≥50 regime the speedup floor is
// stated over, and narrow vs wide LHSs. Universes this size are the
// regime the index exists for — on tiny schemas (≈20 attributes) both
// paths finish in well under a microsecond and the indexed query's
// fixed costs (scratch checkout, counter copy) dominate.
func fdclosureGrid() []fdclosureConfig {
	var grid []fdclosureConfig
	for _, fields := range []int{100, 160} {
		for _, fds := range []int{10, 50, 200} {
			for _, lhsw := range []int{2, 4} {
				grid = append(grid, fdclosureConfig{fields, fds, lhsw})
			}
		}
	}
	return grid
}

// fdclosureWorkload builds a cascade workload: a shuffled chain
// π[0]→π[1]→…→π[n-1] where each FD's extra LHS attributes are drawn
// from earlier chain positions, so from start {π[0]} every FD
// eventually fires and the closure is the full universe. Shuffling the
// FD list makes the textbook fixpoint's pass count adversarial (Θ(n)
// passes in the worst case) — exactly the regime LINCLOSURE's
// counter-based single pass is built for.
func fdclosureWorkload(cfg fdclosureConfig) (fds []rel.FD, start, attrs rel.AttrSet) {
	rng := rand.New(rand.NewSource(fdclosureSeed))
	perm := rng.Perm(cfg.fields)
	for i := 0; i < cfg.fds; i++ {
		pos := i % (cfg.fields - 1)
		lhs := rel.AttrSet{}.With(perm[pos])
		for k := 1; k < cfg.lhsw; k++ {
			lhs = lhs.With(perm[rng.Intn(pos+1)])
		}
		fds = append(fds, rel.NewFD(lhs, rel.AttrSet{}.With(perm[pos+1])))
	}
	rng.Shuffle(len(fds), func(i, j int) { fds[i], fds[j] = fds[j], fds[i] })
	start = rel.AttrSet{}.With(perm[0])
	for i := 0; i < cfg.fields; i++ {
		attrs = attrs.With(i)
	}
	return fds, start, attrs
}

// Sinks keep the compiler from eliding benchmark bodies.
var (
	fdclosureSinkSet  rel.AttrSet
	fdclosureSinkFDs  []rel.FD
	fdclosureSinkKeys []rel.AttrSet
)

// fdclosureMeasure runs one op via testing.Benchmark and records it.
func fdclosureMeasure(rep *fdclosureReport, stdout io.Writer, cfg fdclosureConfig, op string, f func(b *testing.B)) fdclosurePoint {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		f(b)
	})
	p := fdclosurePoint{
		Name:   fmt.Sprintf("FDClosure/fields=%d/fds=%d/lhsw=%d/%s", cfg.fields, cfg.fds, cfg.lhsw, op),
		Fields: cfg.fields, FDs: cfg.fds, LHSWidth: cfg.lhsw, Op: op,
		Iterations: r.N, NsPerOp: float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
	}
	rep.Points = append(rep.Points, p)
	fmt.Fprintf(stdout, "%-48s  %12.0f ns/op  %8d B/op  %6d allocs/op\n",
		p.Name, p.NsPerOp, p.BytesPerOp, p.AllocsPerOp)
	return p
}

// fdclosureRun measures the whole grid and returns the report.
func fdclosureRun(stdout io.Writer) fdclosureReport {
	rep := fdclosureReport{
		Suite:      "fdclosure",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, cfg := range fdclosureGrid() {
		fds, start, attrs := fdclosureWorkload(cfg)

		fix := fdclosureMeasure(&rep, stdout, cfg, "closure_fixpoint", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fdclosureSinkSet = rel.Closure(fds, start)
			}
		})
		// Index construction stays outside the loop: consumers (covers,
		// candidate keys, the registry) compile once and query many times,
		// so the steady-state query is the number that matters.
		ix := rel.NewFDIndex(fds)
		idx := fdclosureMeasure(&rep, stdout, cfg, "closure_indexed", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fdclosureSinkSet = ix.Closure(start)
			}
		})
		fmt.Fprintf(stdout, "%-48s  %11.1fx speedup (fixpoint/indexed)\n", "", fix.NsPerOp/idx.NsPerOp)

		// The two direct consumers, measured on the narrow-LHS cells only
		// to keep the suite's wall time reasonable.
		if cfg.lhsw == 2 {
			fdclosureMeasure(&rep, stdout, cfg, "mincover", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fdclosureSinkFDs = rel.Minimize(fds)
				}
			})
			fdclosureMeasure(&rep, stdout, cfg, "candkeys", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fdclosureSinkKeys = rel.CandidateKeys(fds, attrs, 4)
				}
			})
		}
	}
	return rep
}

// fdclosureJSON runs the suite and writes the report to path (atomic
// rename, same durability story as the pathkernel trajectory).
func fdclosureJSON(stdout io.Writer, path string) error {
	rep := fdclosureRun(stdout)
	if err := checkFDClosureReport(path, &rep); err != nil {
		return fmt.Errorf("refusing to write: %w", err)
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return writeFileAtomic(path, data)
}

// fdclosureMinSpeedup is the floor -check-json enforces on committed
// reports: indexed closure must beat the fixpoint by at least this
// factor on every grid cell with fds >= 50.
const fdclosureMinSpeedup = 5.0

// checkFDClosureJSON validates a report written by fdclosureJSON.
func checkFDClosureJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep fdclosureReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return checkFDClosureReport(path, &rep)
}

func checkFDClosureReport(path string, rep *fdclosureReport) error {
	if rep.Suite != "fdclosure" {
		return fmt.Errorf("%s: suite is %q, want \"fdclosure\"", path, rep.Suite)
	}
	if len(rep.Points) == 0 {
		return fmt.Errorf("%s: no points", path)
	}
	fixpoint := map[string]float64{} // config key → fixpoint ns/op
	for _, p := range rep.Points {
		if p.Name == "" {
			return fmt.Errorf("%s: point with empty name", path)
		}
		if p.NsPerOp <= 0 || p.Iterations <= 0 {
			return fmt.Errorf("%s: %s: non-positive timing (%g ns/op over %d iterations)",
				path, p.Name, p.NsPerOp, p.Iterations)
		}
		if p.AllocsPerOp < 0 || p.BytesPerOp < 0 {
			return fmt.Errorf("%s: %s: negative allocation counters", path, p.Name)
		}
		switch p.Op {
		case "closure_fixpoint", "closure_indexed", "mincover", "candkeys":
		default:
			return fmt.Errorf("%s: %s: unknown op %q", path, p.Name, p.Op)
		}
		key := fmt.Sprintf("%d/%d/%d", p.Fields, p.FDs, p.LHSWidth)
		if p.Op == "closure_fixpoint" {
			fixpoint[key] = p.NsPerOp
		}
		if p.Op == "closure_indexed" && p.FDs >= 50 {
			fix, ok := fixpoint[key]
			if !ok {
				return fmt.Errorf("%s: %s: no matching closure_fixpoint point", path, p.Name)
			}
			if speedup := fix / p.NsPerOp; speedup < fdclosureMinSpeedup {
				return fmt.Errorf("%s: %s: indexed closure only %.1fx faster than fixpoint, want >= %.0fx",
					path, p.Name, speedup, fdclosureMinSpeedup)
			}
		}
	}
	return nil
}

// benchRegressTolerance is the ratio above which -check-against calls a
// point a regression: a fresh run more than 25% slower than the
// committed baseline fails the check. Only slowdowns fail — a faster
// fresh run is never an error.
const benchRegressTolerance = 1.25

// checkBenchAgainst re-runs the committed report's suite on the current
// build and compares ns/op point-by-point against the baseline. A
// baseline point the fresh run does not produce is an error, since
// nothing was compared for it. It is the `make bench-check` entry point.
// Cross-machine numbers are not comparable — run it on the machine that
// produced the baseline.
func checkBenchAgainst(stdout io.Writer, path string, maxFields int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var head struct {
		Suite string `json:"suite"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}

	// baseline and fresh map point names to ns/op.
	baseline := map[string]float64{}
	fresh := map[string]float64{}
	switch head.Suite {
	case "fdclosure":
		var rep fdclosureReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, p := range rep.Points {
			baseline[p.Name] = p.NsPerOp
		}
		fmt.Fprintf(stdout, "xkbench: re-running fdclosure suite against %s\n", path)
		for _, p := range fdclosureRun(stdout).Points {
			fresh[p.Name] = p.NsPerOp
		}
	case "shred":
		var rep shredReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, p := range rep.Points {
			baseline[p.Name] = p.NsPerOp
		}
		fmt.Fprintf(stdout, "xkbench: re-running shred suite against %s\n", path)
		freshRep, err := shredRun(stdout)
		if err != nil {
			return err
		}
		for _, p := range freshRep.Points {
			fresh[p.Name] = p.NsPerOp
		}
	case "pathkernel":
		var rep benchReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range rep.Results {
			baseline[r.Name] = r.NsPerOp
		}
		if rep.MaxFields > 0 && (maxFields == 0 || maxFields > rep.MaxFields) {
			maxFields = rep.MaxFields // match the baseline's grid
		}
		fmt.Fprintf(stdout, "xkbench: re-running pathkernel suite against %s\n", path)
		freshRep, err := benchPathkernelRun(stdout, maxFields)
		if err != nil {
			return err
		}
		for _, r := range freshRep.Results {
			fresh[r.Name] = r.NsPerOp
		}
	default:
		return fmt.Errorf("%s: unknown suite %q", path, head.Suite)
	}

	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	var regressions, missing []string
	for _, name := range names {
		base := baseline[name]
		now, ok := fresh[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		if now > base*benchRegressTolerance {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f ns/op (%.0f%% slower)",
					name, now, base, (now/base-1)*100))
		}
	}
	compared := len(names) - len(missing)
	for _, r := range regressions {
		fmt.Fprintf(stdout, "xkbench: REGRESSION %s\n", r)
	}
	var problems []string
	if len(missing) > 0 {
		problems = append(problems, fmt.Sprintf("%d baseline points not produced by the fresh run (grid changed?): %s",
			len(missing), strings.Join(missing, ", ")))
	}
	if len(regressions) > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d compared points regressed more than %.0f%%",
			len(regressions), compared, (benchRegressTolerance-1)*100))
	}
	if len(problems) > 0 {
		return fmt.Errorf("%s: %s", path, strings.Join(problems, "; "))
	}
	fmt.Fprintf(stdout, "xkbench: %d points within %.0f%% of %s\n",
		compared, (benchRegressTolerance-1)*100, path)
	return nil
}
