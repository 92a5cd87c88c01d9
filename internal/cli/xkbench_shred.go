package cli

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"xkprop/internal/core"
	"xkprop/internal/rel"
	"xkprop/internal/shred"
	"xkprop/internal/transform"
	"xkprop/internal/workload"
)

// This file implements xkbench's shred suite: the streaming shredding
// data plane measured end to end — one tokenizer pass, incremental
// evaluation, online dedup and propagated-FD enforcement — over a grid of
// workload shapes and document fanouts. The suite verifies on every cell
// that tuples flowed and that the conforming corpus stays violation-free;
// the committed JSON re-asserts those gates under -check-json.

// shredPoint is one (config, op) measurement.
type shredPoint struct {
	Name        string  `json:"name"`
	Fields      int     `json:"fields"`
	Depth       int     `json:"depth"`
	Keys        int     `json:"keys"`
	Width       int     `json:"width"`
	Fanout      int     `json:"fanout"`
	Op          string  `json:"op"` // shred
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// Tuples is the per-document deduplicated tuple count; Violations must
	// be zero on the conforming corpus. DocBytes sizes the input.
	Tuples     int64 `json:"tuples"`
	Violations int   `json:"violations"`
	DocBytes   int   `json:"doc_bytes"`
}

// shredReport is the top-level JSON document (suite "shred").
type shredReport struct {
	Suite      string       `json:"suite"`
	GoVersion  string       `json:"go"`
	GOMAXPROCS int          `json:"gomaxprocs"`
	Points     []shredPoint `json:"points"`
}

// shredBenchConfig is one grid cell: a workload shape and document fanout.
type shredBenchConfig struct {
	cfg    workload.Config
	fanout int
}

// shredGrid sweeps document size (fanout), rule depth and width: small
// documents measure per-document overhead, the deep and wide points
// measure the evaluator's frame machinery, the fanout-8 point the
// steady-state tuple throughput.
func shredGrid() []shredBenchConfig {
	return []shredBenchConfig{
		{workload.Config{Fields: 8, Depth: 2, Keys: 4}, 4},
		{workload.Config{Fields: 8, Depth: 2, Keys: 4}, 8},
		{workload.Config{Fields: 12, Depth: 3, Keys: 6}, 3},
		{workload.Config{Fields: 15, Depth: 5, Keys: 10}, 2},
		{workload.Config{Fields: 9, Depth: 3, Keys: 5, Width: 2}, 3},
	}
}

// shredMeasure runs one op via testing.Benchmark and records it.
func shredMeasure(rep *shredReport, stdout io.Writer, sc shredBenchConfig, op string, base shredPoint, f func(b *testing.B)) {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		f(b)
	})
	p := base
	p.Name = fmt.Sprintf("Shred/fields=%d/depth=%d/keys=%d/width=%d/fanout=%d/%s",
		sc.cfg.Fields, sc.cfg.Depth, sc.cfg.Keys, sc.cfg.Width, sc.fanout, op)
	p.Fields, p.Depth, p.Keys, p.Width, p.Fanout = sc.cfg.Fields, sc.cfg.Depth, sc.cfg.Keys, sc.cfg.Width, sc.fanout
	p.Op = op
	p.Iterations = r.N
	p.NsPerOp = float64(r.T.Nanoseconds()) / float64(r.N)
	p.AllocsPerOp = r.AllocsPerOp()
	p.BytesPerOp = r.AllocedBytesPerOp()
	rep.Points = append(rep.Points, p)
	fmt.Fprintf(stdout, "%-56s  %12.0f ns/op  %8d B/op  %6d allocs/op  %5d tuples\n",
		p.Name, p.NsPerOp, p.BytesPerOp, p.AllocsPerOp, p.Tuples)
}

// shredRun measures the whole grid and returns the report.
func shredRun(stdout io.Writer) (shredReport, error) {
	rep := shredReport{
		Suite:      "shred",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	ctx := context.Background()
	for _, sc := range shredGrid() {
		wl := workload.Generate(sc.cfg)
		doc := wl.Document(sc.fanout).XMLString()
		tr := transform.MustTransformation(wl.Rule)
		c, err := shred.Compile(tr)
		if err != nil {
			return rep, err
		}
		cover, err := core.NewEngine(wl.Sigma, wl.Rule).MinimumCoverCtx(ctx)
		if err != nil {
			return rep, err
		}
		covers := map[string][]rel.FD{wl.Rule.Schema.Name: cover}

		// Sanity gates, once per cell: tuples flow and the conforming
		// corpus is clean.
		opts := shred.Options{Sigma: wl.Sigma, Covers: covers}
		res, err := c.Run(ctx, strings.NewReader(doc), shred.Discard{}, opts)
		if err != nil {
			return rep, err
		}
		base := shredPoint{
			Tuples:     res.Tuples(),
			Violations: len(res.Violations) + len(res.StreamViolations),
			DocBytes:   len(doc),
		}
		shredMeasure(&rep, stdout, sc, "shred", base, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := c.Run(ctx, strings.NewReader(doc), shred.Discard{}, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	return rep, nil
}

// shredJSON runs the suite and writes the report (atomic rename),
// refusing to write a report that fails its own gates.
func shredJSON(stdout io.Writer, path string) error {
	rep, err := shredRun(stdout)
	if err != nil {
		return err
	}
	if err := checkShredReport(path, &rep); err != nil {
		return fmt.Errorf("refusing to write: %w", err)
	}
	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	return writeFileAtomic(path, data)
}

// checkShredJSON validates a report written by shredJSON — the
// -check-json sanity gates for the committed BENCH_shred.json.
func checkShredJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep shredReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return checkShredReport(path, &rep)
}

func checkShredReport(path string, rep *shredReport) error {
	if rep.Suite != "shred" {
		return fmt.Errorf("%s: suite is %q, want \"shred\"", path, rep.Suite)
	}
	if len(rep.Points) == 0 {
		return fmt.Errorf("%s: no points", path)
	}
	for _, p := range rep.Points {
		if p.Name == "" {
			return fmt.Errorf("%s: point with empty name", path)
		}
		if p.NsPerOp <= 0 || p.Iterations <= 0 {
			return fmt.Errorf("%s: %s: non-positive timing (%g ns/op over %d iterations)",
				path, p.Name, p.NsPerOp, p.Iterations)
		}
		if p.Op != "shred" {
			return fmt.Errorf("%s: %s: unknown op %q", path, p.Name, p.Op)
		}
		if p.Tuples <= 0 {
			return fmt.Errorf("%s: %s: no tuples shredded", path, p.Name)
		}
		if p.Violations != 0 {
			return fmt.Errorf("%s: %s: %d violations on the conforming corpus, want 0",
				path, p.Name, p.Violations)
		}
		if p.DocBytes <= 0 {
			return fmt.Errorf("%s: %s: empty document", path, p.Name)
		}
		if max, ok := shredCeilings[shredCellKey{p.Fields, p.Fanout, p.Op}]; ok {
			if p.NsPerOp > max.ns {
				return fmt.Errorf("%s: %s: %.0f ns/op exceeds the %0.f ns/op ceiling (2x over the encoding/xml pipeline)",
					path, p.Name, p.NsPerOp, max.ns)
			}
			if p.AllocsPerOp > max.allocs {
				return fmt.Errorf("%s: %s: %d allocs/op exceeds the %d allocs/op ceiling (3x over the encoding/xml pipeline)",
					path, p.Name, p.AllocsPerOp, max.allocs)
			}
		}
	}
	return nil
}

type shredCellKey struct {
	fields, fanout int
	op             string
}

// shredCeilings pins the zero-copy tokenizer's headline win on the
// fields=8 cells: the ceilings are the committed encoding/xml
// pipeline baselines (248785 ns / 3611 allocs at fanout=4, 913263 ns /
// 12710 allocs at fanout=8, GOMAXPROCS=1) divided by the required 2x
// (time) and 3x (allocations) improvement factors.
var shredCeilings = map[shredCellKey]struct {
	ns     float64
	allocs int64
}{
	{8, 4, "shred"}: {ns: 124392, allocs: 1203},
	{8, 8, "shred"}: {ns: 456631, allocs: 4236},
}
