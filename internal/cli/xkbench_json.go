package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"xkprop/internal/core"
	"xkprop/internal/rel"
	"xkprop/internal/workload"
)

// This file implements xkbench's machine-readable mode: -json writes a
// BENCH_pathkernel.json trajectory (ns/op, allocs/op, B/op for minimum
// cover over the §6 grid, one row per grid point), -check-json validates
// such a file, and -cpuprofile/-memprofile hook runtime/pprof into any
// run. The numbers come from testing.Benchmark, so iteration counts are
// calibrated the same way as the go test bench suite.

// benchResult is one grid point's measurement.
type benchResult struct {
	Name        string  `json:"name"`
	Fields      int     `json:"fields"`
	Depth       int     `json:"depth"`
	Keys        int     `json:"keys"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	CoverSize   int     `json:"cover_size"`
}

// benchReport is the top-level JSON document.
type benchReport struct {
	Suite      string        `json:"suite"`
	GoVersion  string        `json:"go"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	MaxFields  int           `json:"max_fields"`
	Results    []benchResult `json:"results"`
}

// benchJSON measures minimum cover over the §6 grid (capped at maxFields)
// and writes the report to path.
func benchJSON(stdout io.Writer, path string, maxFields int) error {
	rep, err := benchPathkernelRun(stdout, maxFields)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return writeFileAtomic(path, data)
}

// benchPathkernelRun measures the §6 grid and returns the report
// (shared between -json and -check-against).
func benchPathkernelRun(stdout io.Writer, maxFields int) (benchReport, error) {
	rep := benchReport{
		Suite:      "pathkernel",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		MaxFields:  maxFields,
	}
	for _, cfg := range workload.Sec6Grid(maxFields) {
		wl := workload.Generate(workload.Config{
			Fields: cfg.Fields, Depth: cfg.Depth, Keys: cfg.Keys, Width: cfg.Width,
		})
		var cover []rel.FD
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cover = core.NewEngine(wl.Sigma, wl.Rule).MinimumCover()
			}
		})
		r := benchResult{
			Name:   fmt.Sprintf("MinimumCover/fields=%d/depth=%d/keys=%d", cfg.Fields, cfg.Depth, cfg.Keys),
			Fields: cfg.Fields, Depth: cfg.Depth, Keys: cfg.Keys,
			Iterations: res.N, NsPerOp: float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(), BytesPerOp: res.AllocedBytesPerOp(),
			CoverSize: len(cover),
		}
		rep.Results = append(rep.Results, r)
		fmt.Fprintf(stdout, "%-40s  %10.0f ns/op  %8d B/op  %6d allocs/op\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
	return rep, nil
}

// writeFileAtomic writes data to path via a temp file in the same
// directory, fsync and rename, so an interrupted run (ctrl-C mid-write,
// OOM kill, power loss) can never leave a truncated BENCH_*.json for
// `make verify`'s check-json step to mis-report. The directory is synced
// best-effort so the rename itself is durable.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync() // durability of the rename; some filesystems reject dir fsync
		d.Close()
	}
	return nil
}

// checkBenchJSON validates a report written by -json: well-formed JSON,
// a known suite marker, and sane per-result numbers. It is the smoke
// check `make verify` runs against committed trajectories. The suite
// marker dispatches: pathkernel reports are checked here, fdclosure
// reports in checkFDClosureJSON (which also enforces the committed
// indexed-vs-fixpoint speedup floor), shred reports in checkShredJSON
// (which re-asserts the tuples/violations/determinism gates and the
// tokenizer-rewrite speedup ceilings), tokenizer reports in
// checkTokenizerJSON (which re-asserts decoder parity and the
// zero-allocation steady state).
func checkBenchJSON(path string) error {
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
	if head.Suite == "fdclosure" {
		return checkFDClosureJSON(path)
	}
	if head.Suite == "shred" {
		return checkShredJSON(path)
	}
	if head.Suite == "tokenizer" {
		return checkTokenizerJSON(path)
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.Suite != "pathkernel" {
		return fmt.Errorf("%s: suite is %q, want \"pathkernel\", \"fdclosure\", \"shred\", or \"tokenizer\"", path, rep.Suite)
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("%s: no results", path)
	}
	for _, r := range rep.Results {
		if r.Name == "" {
			return fmt.Errorf("%s: result with empty name", path)
		}
		if r.NsPerOp <= 0 || r.Iterations <= 0 {
			return fmt.Errorf("%s: %s: non-positive timing (%g ns/op over %d iterations)",
				path, r.Name, r.NsPerOp, r.Iterations)
		}
		if r.AllocsPerOp < 0 || r.BytesPerOp < 0 {
			return fmt.Errorf("%s: %s: negative allocation counters", path, r.Name)
		}
	}
	return nil
}
