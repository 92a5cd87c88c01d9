package cli

import (
	"context"
	"fmt"
	"math"
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
// workload shapes and document fanouts. Each cell's set-up shreds its
// document once and records that tuples flowed and that the conforming
// corpus stays violation-free; the gate table holds every report to it.

// shredSuite's ceilings pin the zero-copy tokenizer's headline win on
// the fields=8 cells: they are the committed encoding/xml pipeline
// baselines (248785 ns / 3611 allocs at fanout=4, 913263 ns / 12710
// allocs at fanout=8, GOMAXPROCS=1) divided by the required 2x (time)
// and 3x (allocations) improvement factors.
var shredSuite = benchSuite{
	name:  "shred",
	cells: shredCells,
	gates: []benchGate{
		gateOneOf("op", "shred"),
		gateRange("tuples", 1, math.Inf(1)),
		gateRange("violations", 0, 0),
		gateRange("doc_bytes", 1, math.Inf(1)),
		gateRange("ns_per_op", math.Inf(-1), 124392, benchVal{"fields", 8}, benchVal{"fanout", 4}),
		gateRange("allocs_per_op", math.Inf(-1), 1203, benchVal{"fields", 8}, benchVal{"fanout", 4}),
		gateRange("ns_per_op", math.Inf(-1), 456631, benchVal{"fields", 8}, benchVal{"fanout", 8}),
		gateRange("allocs_per_op", math.Inf(-1), 4236, benchVal{"fields", 8}, benchVal{"fanout", 8}),
	},
}

// shredCells sweep document size (fanout), rule depth and width: small
// documents measure per-document overhead, the deep and wide points
// measure the evaluator's frame machinery, the fanout-8 point the
// steady-state tuple throughput.
func shredCells() []benchCell {
	var cells []benchCell
	for _, c := range []struct {
		cfg    workload.Config
		fanout int
	}{
		{workload.Config{Fields: 8, Depth: 2, Keys: 4}, 4},
		{workload.Config{Fields: 8, Depth: 2, Keys: 4}, 8},
		{workload.Config{Fields: 12, Depth: 3, Keys: 6}, 3},
		{workload.Config{Fields: 15, Depth: 5, Keys: 10}, 2},
		{workload.Config{Fields: 9, Depth: 3, Keys: 5, Width: 2}, 3},
	} {
		cells = append(cells, benchCell{
			name: fmt.Sprintf("Shred/fields=%d/depth=%d/keys=%d/width=%d/fanout=%d/shred",
				c.cfg.Fields, c.cfg.Depth, c.cfg.Keys, c.cfg.Width, c.fanout),
			params: []benchVal{{"fields", c.cfg.Fields}, {"depth", c.cfg.Depth}, {"keys", c.cfg.Keys},
				{"width", c.cfg.Width}, {"fanout", c.fanout}},
			op:    "shred",
			setup: func() ([]benchVal, func(*testing.B), error) { return shredSetup(c.cfg, c.fanout) },
		})
	}
	return cells
}

// shredSetup compiles the cell's rule and cover and shreds its document
// once. Its facts are the per-document deduplicated tuple count, the
// violation count (zero on the conforming corpus) and the input size.
func shredSetup(cfg workload.Config, fanout int) ([]benchVal, func(*testing.B), error) {
	ctx := context.Background()
	wl := workload.Generate(cfg)
	doc := wl.Document(fanout).XMLString()
	c, err := shred.Compile(transform.MustTransformation(wl.Rule))
	if err != nil {
		return nil, nil, err
	}
	cover, err := core.NewEngine(wl.Sigma, wl.Rule).MinimumCoverCtx(ctx)
	if err != nil {
		return nil, nil, err
	}
	opts := shred.Options{Sigma: wl.Sigma, Covers: map[string][]rel.FD{wl.Rule.Schema.Name: cover}}
	res, err := c.Run(ctx, strings.NewReader(doc), shred.Discard{}, opts)
	if err != nil {
		return nil, nil, err
	}
	facts := []benchVal{
		{"tuples", res.Tuples()},
		{"violations", len(res.Violations) + len(res.StreamViolations)},
		{"doc_bytes", len(doc)},
	}
	return facts, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.Run(ctx, strings.NewReader(doc), shred.Discard{}, opts); err != nil {
				b.Fatal(err)
			}
		}
	}, nil
}
