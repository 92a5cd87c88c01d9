package main

// The data-plane workloads, bulk and cartesian. Both shred their corpus
// one document at a time exactly as xkload's loop does: Σ validated in
// the same pass, every rule's propagated minimum cover enforced online,
// a CSV sink per document. The checks run outside the timed region.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"xkprop/internal/budget"
	"xkprop/internal/core"
	"xkprop/internal/metrics"
	"xkprop/internal/rel"
	"xkprop/internal/shred"
	"xkprop/internal/stream"
	"xkprop/internal/transform"
	"xkprop/internal/workload"
	"xkprop/internal/xmlkey"
	"xkprop/internal/xmltok"
	"xkprop/internal/xmltree"
)

// loadCtx carries xkload's default budget: nesting and violation caps.
func loadCtx() context.Context {
	return budget.With(context.Background(), budget.Budget{MaxStreamDepth: 10_000, MaxViolations: 10_000})
}

// loader is one schema made ready for the data plane: the program-side
// set-up that xkload performs before its loop.
type loader struct {
	sigma  []xmlkey.Key
	tr     *transform.Transformation
	covers map[string][]rel.FD
	c      *shred.Compiled
	// discard drops the tuples after counting and checking them, as the
	// server's /v1/shred does; otherwise they go to a CSV sink, as xkload's.
	discard bool
}

// newLoader parses Σ and σ, builds one decider, takes every rule's
// minimum cover and compiles the transformation.
func newLoader(ctx context.Context, keys, rules string) (*loader, error) {
	l := &loader{covers: map[string][]rel.FD{}}
	var err error
	if l.sigma, err = xmlkey.ParseSet(strings.NewReader(keys)); err != nil {
		return nil, err
	}
	if l.tr, err = transform.ParseString(rules); err != nil {
		return nil, err
	}
	dec := xmlkey.NewDecider(l.sigma)
	for _, rule := range l.tr.Rules {
		cover, err := core.NewEngineWithDecider(dec, rule).MinimumCoverCtx(ctx)
		if err != nil {
			return nil, err
		}
		l.covers[rule.Schema.Name] = cover
	}
	l.c, err = shred.Compile(l.tr)
	return l, err
}

// variant selects which optional stages a Run includes; the traced run
// attributes the validator and the FD guard by running without them.
type variant int

const (
	full variant = iota
	noSigma
	noCovers
)

func (l *loader) options(v variant, set *metrics.Set) shred.Options {
	o := shred.Options{Sigma: l.sigma, Covers: l.covers, Metrics: set}
	switch v {
	case noSigma:
		o.Sigma = nil
	case noCovers:
		o.Covers = nil
	}
	return o
}

// shredDoc runs one document into the loader's sink (a CSV sink writes
// under dir). With a tracer the Run, every input Read and every sink call
// are spans.
func (l *loader) shredDoc(ctx context.Context, xml []byte, dir string, v variant, set *metrics.Set, tr *tracer, id int64) (*shred.Result, error) {
	in := bytes.NewReader(xml)
	var sink shred.Sink = shred.NewCSVSink(dir)
	if l.discard {
		sink = shred.Discard{}
	}
	s := tr.start("shred.run", -1, id)
	defer tr.end(s)
	if tr != nil {
		return l.c.Run(ctx, &tracedReader{r: in, tr: tr, parent: s, id: id},
			tracedSink{s: sink, tr: tr, parent: s, id: id}, l.options(v, set))
	}
	return l.c.Run(ctx, in, sink, l.options(v, set))
}

// loadDoc is a document together with the loader of its schema.
type loadDoc struct {
	doc
	l *loader
}

// check compares a run's result with the generator's expectations.
func (d *loadDoc) check(res *shred.Result) error {
	for _, t := range res.Tables {
		if want := d.tables[t.Table]; t.Tuples != want {
			return fmt.Errorf("table %s: %d tuples, want %d", t.Table, t.Tuples, want)
		}
	}
	if len(res.Tables) != len(d.tables) {
		return fmt.Errorf("%d tables, want %d", len(res.Tables), len(d.tables))
	}
	if got := len(res.StreamViolations); got != d.keyViolations {
		return fmt.Errorf("%d key violations, want %d", got, d.keyViolations)
	}
	if got, want := len(res.Violations), d.dups*bibFDsPerDup; got != want {
		return fmt.Errorf("%d FD violations, want %d", got, want)
	}
	return nil
}

// checkEval compares the streaming evaluator with the tree evaluator:
// shred.EvalStreaming against Rule.Eval, which deduplicates.
func (d *loadDoc) checkEval() error {
	got, err := shred.EvalStreaming(d.l.tr, bytes.NewReader(d.xml))
	if err != nil {
		return err
	}
	tree, err := xmltree.Parse(bytes.NewReader(d.xml))
	if err != nil {
		return err
	}
	for _, rule := range d.l.tr.Rules {
		if !rel.EqualInstances(got[rule.Schema.Name], rule.Eval(tree)) {
			return fmt.Errorf("table %s: streaming and tree evaluators differ", rule.Schema.Name)
		}
	}
	return nil
}

// loadSpec describes one data-plane workload.
type loadSpec struct {
	keys, rules string
	design      schema // the workload's own schema, for the design.* metrics
	docs        func(*rand.Rand) []doc
	// bib marks the bibliography corpus, whose covers the generator
	// states (bibCovers).
	bib bool
	// minimal is the smallest valid document, for shred.fixed_us.
	minimal string
	// evalSample is how many small documents the tree-evaluator check
	// compares.
	evalSample int
}

func runBulk(r *run) error {
	keys, rules := bibSchema("")
	return runLoad(r, loadSpec{
		keys: keys, rules: rules,
		design: schema{
			name: "bib", keys: keys, dsl: rules, probeRule: "article",
			probeTrue: bibProbeTrue, probeFalse: bibProbeFalse,
		},
		docs: bulkCorpus, bib: true, minimal: "<dblp/>", evalSample: 4,
	})
}

func runCartesian(r *run) error {
	s := workloadSchema(workload.Generate(cartesianConfig))
	return runLoad(r, loadSpec{
		keys: s.keys, rules: s.dsl, design: s,
		docs: cartesianCorpus, minimal: "<r/>", evalSample: 2,
	})
}

// setup_s is the median of set-ups repeated over the whole run:
// setupRepeats before the checks, the first of which fills the program's
// lazily built state, then setupsPerPass after every pass of the timed
// loop. A set-up takes about a millisecond or less, so repetitions made
// back to back all fall in one moment of the machine, and on the
// development machine their median moved by up to 2x from one process to
// the next; spread over the run it moves as little as the loop's figures.
const (
	setupRepeats  = 11
	setupsPerPass = 5
)

func runLoad(r *run, spec loadSpec) error {
	ctx := loadCtx()
	rng := rand.New(rand.NewSource(r.seed))
	gen := spec.docs(rng)

	// Set-up, repeated; the last loader serves the run.
	var l *loader
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		var err error
		if l, err = newLoader(ctx, spec.keys, spec.rules); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if spec.bib {
		r.checkCovers(l)
	}
	docs := make([]*loadDoc, len(gen))
	var corpusBytes int64
	for i := range gen {
		docs[i] = &loadDoc{doc: gen[i], l: l}
		corpusBytes += int64(len(gen[i].xml))
	}
	fmt.Fprintf(r.out, "corpus %d documents, %.2f MB\n", len(docs), float64(corpusBytes)/1e6)
	out := filepath.Join(r.dir, "out")

	// Checks, untimed: every document once, and the tree evaluator on a
	// seeded sample of the small documents.
	for i, d := range docs {
		r.attempted++
		res, err := l.shredDoc(ctx, d.xml, filepath.Join(out, "check"), full, nil, nil, int64(i))
		if err != nil {
			r.fail("document %d: %v", i, err)
			continue
		}
		if err := d.check(res); err != nil {
			r.fail("document %d: %v", i, err)
		}
	}
	for _, i := range smallSample(rng, docs, spec.evalSample) {
		r.attempted++
		if err := docs[i].checkEval(); err != nil {
			r.fail("document %d: %v", i, err)
		}
	}

	if r.tr != nil {
		return r.loadLayers(ctx, spec, docs)
	}

	// The own-schema design repetitions and more set-ups run between
	// corpus passes, so they sample the whole run, each batch after a
	// collection so that the pass's garbage is not charged to them.
	own := newReps(1)
	between := func() {
		runtime.GC()
		for i := 0; i < 20; i++ {
			r.designRep(ctx, &spec.design, own)
		}
		for i := 0; i < setupsPerPass; i++ {
			t0 := time.Now()
			_, err := newLoader(ctx, spec.keys, spec.rules)
			setups = append(setups, time.Since(t0).Seconds())
			r.attempted++
			if err != nil {
				r.fail("set-up: %v", err)
			}
		}
	}
	lp := r.loadLoop(ctx, docs, out, r.seconds, nil, between)
	for len(own.order) < 15 {
		between()
	}
	r.set("setup_s", "s", median(setups))
	r.setLoad(docs, lp.reps)
	r.setClosedLatency(lp.reps)
	r.setDesign(own)
	r.set("peak_rss_mb", "MB", peakRSSMB())
	return nil
}

// checkCovers checks a bibliography loader's covers against the ones the
// generator states.
func (r *run) checkCovers(l *loader) {
	r.attempted++
	if err := checkBibCovers(l.tr, l.covers); err != nil {
		r.fail("set-up: %v", err)
	}
}

// smallSample picks n seeded documents among the smaller half.
func smallSample(rng *rand.Rand, docs []*loadDoc, n int) []int {
	var small []int
	var sizes []float64
	for _, d := range docs {
		sizes = append(sizes, float64(len(d.xml)))
	}
	cut := median(sizes)
	for i, d := range docs {
		if float64(len(d.xml)) <= cut {
			small = append(small, i)
		}
	}
	rng.Shuffle(len(small), func(i, j int) { small[i], small[j] = small[j], small[i] })
	if len(small) > n {
		small = small[:n]
	}
	return small
}

// loopResult is what the timed loop measured.
type loopResult struct {
	bytes int64
	reps  *reps // per-document latencies
}

// loadLoop shreds the documents pass after pass, each pass in a fresh
// seeded order, until d has passed; a document in flight at the deadline
// completes and counts. between, if not nil, runs after each full pass.
// The results are kept and checked after the clock stops.
func (r *run) loadLoop(ctx context.Context, docs []*loadDoc, out string, d time.Duration, tr *tracer, between func()) loopResult {
	type outcome struct {
		i   int
		res *shred.Result
		err error
	}
	lp := loopResult{reps: newReps(len(docs))}
	outcomes := make([]outcome, 0, 4096)
	order := newShuffled(r.seed, len(docs))
	start := time.Now()
	for k := 0; time.Since(start) < d; k++ {
		i := order.item(k)
		if k%len(docs) == 0 && k > 0 && between != nil {
			between()
		}
		t0 := time.Now()
		res, err := docs[i].l.shredDoc(ctx, docs[i].xml, filepath.Join(out, fmt.Sprintf("slot%d", k%4)), full, nil, tr, int64(k))
		lp.reps.add(i, ms(time.Since(t0)))
		outcomes = append(outcomes, outcome{i, res, err})
		lp.bytes += int64(len(docs[i].xml))
	}
	for _, o := range outcomes {
		r.attempted++
		if o.err != nil {
			r.fail("document %d: %v", o.i, o.err)
		} else if err := docs[o.i].check(o.res); err != nil {
			r.fail("document %d: %v", o.i, err)
		}
	}
	return lp
}

// setLoad records load.* from per-document latencies: one pass over the
// sampled documents, each at its median repetition.
func (r *run) setLoad(docs []*loadDoc, p *reps) {
	passMS, sampled := p.pass()
	var bytesIn, tuples int64
	for _, i := range sampled {
		bytesIn += int64(len(docs[i].xml))
		for _, n := range docs[i].tables {
			tuples += n
		}
	}
	sec := passMS / 1000
	r.set("load.mb_s", "MB/s", float64(bytesIn)/1e6/sec)
	r.set("load.docs_s", "docs/s", float64(len(sampled))/sec)
	r.set("load.tuples_s", "tuples/s", float64(tuples)/sec)
}

// setClosedLatency records serve.p50_ms and serve.max_rps for a
// closed-loop workload with one caller, whose operations are its
// documents or schemas: the median operation latency, each operation taken
// as its item's median repetition, and the caller's rate, one operation
// after another. The p99 is printed beside the median and is a per-layer
// metric (closedP99).
func (r *run) setClosedLatency(p *reps) {
	lat := p.typical()
	passMS, sampled := p.pass()
	r.set("serve.p50_ms", "ms", median(lat))
	r.set("serve.max_rps", "req/s", float64(len(sampled))/(passMS/1000))
	fmt.Fprintf(r.out, "latency samples %d (%d beyond p99): p50 %.3f ms, p99 %.3f ms\n",
		len(lat), len(lat)/100, median(lat), quantile(lat, 0.99))
}

// closedP99 records serve.p99_ms of a closed-loop workload's untraced
// half in a traced run.
func (r *run) closedP99(p *reps) {
	r.set("serve.p99_ms", "ms", quantile(p.typical(), 0.99))
}

// loadLayers is the traced run of a data-plane workload: the timed loop
// untraced and then traced gives trace.overhead_pct, and the per-layer
// metrics come from dataLayers and designLayers.
func (r *run) loadLayers(ctx context.Context, spec loadSpec, docs []*loadDoc) error {
	out := filepath.Join(r.dir, "out")
	half := r.seconds / 2
	plain := r.loadLoop(ctx, docs, out, half, nil, nil)
	g0 := readGo()
	traced := r.loadLoop(ctx, docs, out, half, r.tr, nil)
	g1 := readGo()
	r.setGoLayer(g0, g1, traced.bytes)
	r.closedP99(plain.reps)
	plainMS, _ := plain.reps.pass()
	tracedMS, _ := traced.reps.pass()
	r.set("trace.overhead_pct", "%", (tracedMS/plainMS-1)*100)
	if err := r.dataLayers(ctx, docs, spec.minimal); err != nil {
		return err
	}
	r.designLayers(ctx, []schema{spec.design})
	r.setServeLayersIdle()
	return nil
}

// dataLayers records the data-plane per-layer metrics over one pass of
// docs: a traced pass with a metrics.Set for the spans and counters, then
// the untraced variant passes that attribute the stages Compiled.Run has
// no public seam for, the fixed per-run cost and the parallel speed-up.
func (r *run) dataLayers(ctx context.Context, docs []*loadDoc, minimal string) error {
	tr := r.tr
	out := filepath.Join(r.dir, "layers")
	mark := tr.mark()
	compiled := map[*loader]bool{}
	for _, d := range docs {
		if !compiled[d.l] {
			compiled[d.l] = true
			s := tr.start("shred.compile", -1, -1)
			_, err := shred.Compile(d.l.tr)
			tr.end(s)
			if err != nil {
				return err
			}
		}
	}
	set := metrics.NewSet()
	var passBytes, passTuples, sinkBytes int64
	for i, d := range docs {
		r.attempted++
		dir := filepath.Join(out, "traced")
		res, err := d.l.shredDoc(ctx, d.xml, dir, full, set, tr, int64(i))
		if err != nil {
			r.fail("document %d: %v", i, err)
			continue
		}
		if err := d.check(res); err != nil {
			r.fail("document %d: %v", i, err)
		}
		passBytes += int64(len(d.xml))
		passTuples += res.Tuples()
		sinkBytes += dirBytes(dir)
	}
	lt := tr.timesSince(mark)
	runS := lt.total["shred.run"].Seconds()
	r.set("shred.compile_s", "s", lt.total["shred.compile"].Seconds())
	r.set("shred.run_s", "s", runS)
	r.set("input.read_s", "s", lt.total["input.read"].Seconds())
	r.set("sink.s", "s", (lt.total["sink.open"] + lt.total["sink.write"] + lt.total["sink.close"]).Seconds())
	counter := func(name string) float64 { return float64(set.Counter(name).Value()) }
	r.set("shred.tuples", "count", counter("shred.tuples"))
	r.set("shred.batches", "count", counter("shred.batches"))
	r.set("shred.fd_checks", "count", counter("shred.fd_checks"))
	r.set("shred.fd_violations", "count", counter("shred.violations"))
	r.set("sink.bytes", "B", float64(sinkBytes))
	bpt := 0.0
	if passTuples > 0 {
		bpt = float64(sinkBytes) / float64(passTuples)
	}
	r.set("sink.bytes_per_tuple", "B/tuple", bpt)

	// Stage estimates, variants interleaved per document so that drift
	// hits all of them alike, scaled to the traced pass.
	var base, woSigma, woCovers, tok, val time.Duration
	var tokens, violations int64
	for i, d := range docs {
		dir := filepath.Join(out, "variant")
		for _, v := range []variant{full, noSigma, noCovers} {
			t0 := time.Now()
			_, err := d.l.shredDoc(ctx, d.xml, dir, v, nil, nil, int64(i))
			el := time.Since(t0)
			r.attempted++
			if err != nil {
				r.fail("document %d variant %d: %v", i, v, err)
				continue
			}
			switch v {
			case full:
				base += el
			case noSigma:
				woSigma += el
			case noCovers:
				woCovers += el
			}
		}
		t0 := time.Now()
		n, err := countTokens(d.xml)
		tok += time.Since(t0)
		tokens += n
		if err != nil {
			r.fail("document %d tokenizer: %v", i, err)
		}
		t0 = time.Now()
		v := stream.NewValidator(d.l.sigma)
		err = v.RunCtx(ctx, bytes.NewReader(d.xml))
		val += time.Since(t0)
		if err != nil {
			r.fail("document %d validator: %v", i, err)
		}
		violations += int64(len(v.Violations()))
	}
	scale := runS / base.Seconds()
	sigmaS := (base - woSigma).Seconds() * scale
	guardS := (base - woCovers).Seconds() * scale
	r.set("xmltok.tokens", "count", float64(tokens))
	r.set("xmltok.s", "s", tok.Seconds())
	r.set("xmltok.mb_s", "MB/s", float64(passBytes)/1e6/tok.Seconds())
	r.set("stream.s", "s", (val - tok).Seconds())
	r.set("stream.violations", "count", float64(violations))
	r.set("shred.sigma_s", "s", sigmaS)
	r.set("shred.guard_s", "s", guardS)
	r.set("shred.self_s", "s", lt.self["shred.run"].Seconds()-sigmaS-guardS)
	r.notes = append(r.notes,
		"shred.sigma_s, shred.guard_s and shred.self_s are estimates: Compiled.Run has no public seam "+
			"for the validator, the FD guard or the evaluator, so they come from runs without Options.Sigma "+
			"and without Options.Covers, scaled to the traced pass",
		"xmltok.* and stream.s come from a tokenizer-only and a validator-only pass over the same documents")

	// Fixed per-run cost: the smallest valid document, workload options.
	var fixed []float64
	l := docs[0].l
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if _, err := l.shredDoc(ctx, []byte(minimal), filepath.Join(out, "fixed"), full, nil, nil, 0); err != nil {
			return fmt.Errorf("fixed-cost run: %w", err)
		}
		fixed = append(fixed, float64(time.Since(t0).Microseconds()))
	}
	r.set("shred.fixed_us", "us", median(fixed))

	// Per-rule fan-out: one pass at GOMAXPROCS=1, one at nproc.
	pass := func() (time.Duration, error) {
		t0 := time.Now()
		for i, d := range docs {
			if _, err := d.l.shredDoc(ctx, d.xml, filepath.Join(out, "par"), full, nil, nil, int64(i)); err != nil {
				return 0, fmt.Errorf("document %d: %w", i, err)
			}
		}
		return time.Since(t0), nil
	}
	n := runtime.GOMAXPROCS(1)
	one, err := pass()
	runtime.GOMAXPROCS(n)
	if err != nil {
		return err
	}
	many, err := pass()
	if err != nil {
		return err
	}
	r.set("shred.par_speedup", "ratio", one.Seconds()/many.Seconds())
	return nil
}

// countTokens runs the tokenizer alone over a document.
func countTokens(xml []byte) (int64, error) {
	src, err := xmltok.Open("", bytes.NewReader(xml), nil)
	if err != nil {
		return 0, err
	}
	var n int64
	for {
		_, err := src.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return n, nil
			}
			return n, err
		}
		n++
	}
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range ents {
		if fi, err := e.Info(); err == nil {
			n += fi.Size()
		}
	}
	return n
}
