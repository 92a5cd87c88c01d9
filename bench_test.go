package xkprop_test

// Benchmark harness regenerating the paper's experiments (§6, Fig 7).
// Each figure has one benchmark family; cmd/xkbench prints the same series
// as human-readable tables and EXPERIMENTS.md records paper-vs-measured.
//
//	Fig 7(a): minimum-cover time vs number of fields (depth=5, keys=10),
//	          minimumCover (polynomial) vs naive (exponential baseline).
//	Fig 7(b): propagation-check time vs table-tree depth (fields=15,
//	          keys=10), Algorithm propagation vs GminimumCover.
//	Fig 7(c): propagation-check time vs number of keys (fields=15,
//	          depth=5), Algorithm propagation vs GminimumCover.
//	§6 text:  propagation at 1000 fields (Oracle's column limit) with 50
//	          and 100 keys.
//
// Run: go test -bench=. -benchmem

import (
	"fmt"
	"testing"

	"xkprop/internal/core"
	"xkprop/internal/workload"
)

// fig7aFields mirrors the paper's sweep up to 500 fields; the sweep starts
// at 10 so that every level of the depth-5 table tree carries a non-key
// attribute (at fields=depth the propagated FD set is empty by
// construction). The naive baseline is only feasible at the low end — its
// time grows ~200× per +5 fields, which is the point of the figure.
var fig7aFields = []int{10, 15, 20, 50, 100, 200, 500}

func BenchmarkFig7aMinimumCover(b *testing.B) {
	for _, fields := range fig7aFields {
		w := workload.Generate(workload.Config{Fields: fields, Depth: 5, Keys: 10})
		b.Run(fmt.Sprintf("fields=%d", fields), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := core.NewEngine(w.Sigma, w.Rule)
				cover := e.MinimumCover()
				if len(cover) == 0 {
					b.Fatal("empty cover")
				}
			}
		})
	}
}

func BenchmarkFig7aNaive(b *testing.B) {
	for _, fields := range []int{10, 15} {
		w := workload.Generate(workload.Config{Fields: fields, Depth: 5, Keys: 10})
		b.Run(fmt.Sprintf("fields=%d", fields), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := core.NewEngine(w.Sigma, w.Rule)
				cover := e.NaiveCover()
				if len(cover) == 0 {
					b.Fatal("empty cover")
				}
			}
		})
	}
}

// fig7bDepths mirrors the paper's "depth varying from 2 to 10" with
// fields=15, keys=10 ("chosen based on the average tree depth found in
// real XML data").
var fig7bDepths = []int{2, 3, 4, 5, 6, 7, 8, 9, 10}

func BenchmarkFig7bPropagation(b *testing.B) {
	for _, depth := range fig7bDepths {
		w := workload.Generate(workload.Config{Fields: 15, Depth: depth, Keys: 10})
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := core.NewEngine(w.Sigma, w.Rule)
				if !e.Propagates(w.ProbeTrue) {
					b.Fatal("probe must propagate")
				}
			}
		})
	}
}

func BenchmarkFig7bGminimumCover(b *testing.B) {
	for _, depth := range fig7bDepths {
		w := workload.Generate(workload.Config{Fields: 15, Depth: depth, Keys: 10})
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := core.NewEngine(w.Sigma, w.Rule)
				if !e.GPropagates(w.ProbeTrue) {
					b.Fatal("probe must propagate")
				}
			}
		})
	}
}

// fig7cKeys mirrors the paper's key sweep at fields=15, depth=5.
var fig7cKeys = []int{10, 20, 30, 40, 50, 75, 100}

func BenchmarkFig7cPropagation(b *testing.B) {
	for _, keys := range fig7cKeys {
		w := workload.Generate(workload.Config{Fields: 15, Depth: 5, Keys: keys})
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := core.NewEngine(w.Sigma, w.Rule)
				if !e.Propagates(w.ProbeTrue) {
					b.Fatal("probe must propagate")
				}
			}
		})
	}
}

func BenchmarkFig7cGminimumCover(b *testing.B) {
	for _, keys := range fig7cKeys {
		w := workload.Generate(workload.Config{Fields: 15, Depth: 5, Keys: keys})
		b.Run(fmt.Sprintf("keys=%d", keys), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := core.NewEngine(w.Sigma, w.Rule)
				if !e.GPropagates(w.ProbeTrue) {
					b.Fatal("probe must propagate")
				}
			}
		})
	}
}

// BenchmarkSec6ExtremesPropagation reproduces §6's closing data points:
// 1000 fields (the maximum Oracle allows) with 50 and 100 keys, where the
// paper's propagation implementation needed 85 s and 142 s on 2003
// hardware.
func BenchmarkSec6ExtremesPropagation(b *testing.B) {
	for _, keys := range []int{50, 100} {
		w := workload.Generate(workload.Config{Fields: 1000, Depth: 10, Keys: keys})
		b.Run(fmt.Sprintf("fields=1000/keys=%d", keys), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := core.NewEngine(w.Sigma, w.Rule)
				if !e.Propagates(w.ProbeTrue) {
					b.Fatal("probe must propagate")
				}
			}
		})
	}
}

// BenchmarkAblationEngineReuse quantifies the design choice DESIGN.md
// calls out: reusing the implication decider's memo across queries versus
// rebuilding it per check (the paper's per-invocation setting).
func BenchmarkAblationEngineReuse(b *testing.B) {
	w := workload.Generate(workload.Config{Fields: 50, Depth: 5, Keys: 20})
	b.Run("fresh-engine-per-check", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := core.NewEngine(w.Sigma, w.Rule)
			_ = e.Propagates(w.ProbeTrue)
		}
	})
	b.Run("shared-engine", func(b *testing.B) {
		e := core.NewEngine(w.Sigma, w.Rule)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = e.Propagates(w.ProbeTrue)
		}
	})
}

// BenchmarkEvaluateTransformation measures instance generation (the
// consumer-side import path exercised by Fig 2): evaluating the generated
// universal rule over a conforming document.
func BenchmarkEvaluateTransformation(b *testing.B) {
	for _, fanout := range []int{2, 3} {
		w := workload.Generate(workload.Config{Fields: 12, Depth: 4, Keys: 8})
		doc := w.Document(fanout)
		b.Run(fmt.Sprintf("fanout=%d", fanout), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				inst := w.Rule.Eval(doc)
				if len(inst.Tuples) == 0 {
					b.Fatal("empty instance")
				}
			}
		})
	}
}

// BenchmarkAblationTreeShape compares minimum-cover computation on deep
// versus bushy table trees carrying the same number of fields and keys —
// the shape dimension the paper's chain-style generator holds fixed.
func BenchmarkAblationTreeShape(b *testing.B) {
	shapes := []struct {
		name string
		cfg  workload.Config
	}{
		{"deep-narrow", workload.Config{Fields: 60, Depth: 10, Keys: 10, Width: 1}},
		{"balanced", workload.Config{Fields: 60, Depth: 5, Keys: 10, Width: 2}},
		{"shallow-wide", workload.Config{Fields: 60, Depth: 2, Keys: 10, Width: 5}},
	}
	for _, sh := range shapes {
		w := workload.Generate(sh.cfg)
		b.Run(sh.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e := core.NewEngine(w.Sigma, w.Rule)
				if cover := e.MinimumCover(); len(cover) == 0 {
					b.Fatal("empty cover")
				}
			}
		})
	}
}
