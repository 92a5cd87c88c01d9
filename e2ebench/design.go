package main

// The design workload: each schema taken cold through Algorithm
// propagation and minimumCover, BCNF and DDL, as an xkcover or xkddl user
// waits for it. The other workloads report design.* for their own
// schemas through designRep and setDesign, so a change to the analysis
// plane shows wherever that plane runs.

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime/debug"
	"strings"
	"time"

	"xkprop/internal/core"
	"xkprop/internal/rel"
	"xkprop/internal/shred"
	"xkprop/internal/sqlgen"
	"xkprop/internal/transform"
	"xkprop/internal/xmlkey"
)

// designOut is one schema's cold design result, kept for the checks.
type designOut struct {
	sigma      []xmlkey.Key
	tr         *transform.Transformation
	covers     map[string][]rel.FD
	frags      map[string][]rel.Fragment
	probeTrue  bool
	probeFalse bool
	ddl        map[string]string
}

// designCounts are the analysis-plane work counters of a set of schemas.
type designCounts struct {
	memo, intern, coverFDs, propagateCalls, fragWidthMax int
}

// coldDesign takes one schema through the full cold design path: parse,
// xmlkey.NewDecider, MinimumCoverCtx per rule, the two probes, rel.BCNF
// and DDL. Each call into a layer is a span when tr is non-nil.
func coldDesign(ctx context.Context, s *schema, tr *tracer, id int64, counts *designCounts) (*designOut, error) {
	root := tr.start("design", -1, id)
	defer tr.end(root)
	out := &designOut{covers: map[string][]rel.FD{}, frags: map[string][]rel.Fragment{}, ddl: map[string]string{}}
	var err error
	sp := tr.start("xmlkey.parse", root, id)
	out.sigma, err = xmlkey.ParseSet(strings.NewReader(s.keys))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start("transform.parse", root, id)
	out.tr, err = transform.ParseString(s.dsl)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.start("xmlkey.decider", root, id)
	dec := xmlkey.NewDecider(out.sigma)
	tr.end(sp)
	opts := sqlgen.Options{}
	for _, rule := range out.tr.Rules {
		sc := rule.Schema
		eng := core.NewEngineWithDecider(dec, rule)
		sp = tr.start("core.cover", root, id)
		cover, err := eng.MinimumCoverCtx(ctx)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		out.covers[sc.Name] = cover
		if sc.Name == s.probeRule {
			for i, text := range []string{s.probeTrue, s.probeFalse} {
				fd, err := rel.ParseFD(sc, text)
				if err != nil {
					return nil, fmt.Errorf("probe %q: %w", text, err)
				}
				sp = tr.start("core.propagate", root, id)
				ok, err := eng.PropagatesCtx(ctx, fd)
				tr.end(sp)
				if err != nil {
					return nil, err
				}
				if i == 0 {
					out.probeTrue = ok
				} else {
					out.probeFalse = ok
				}
			}
		}
		sp = tr.start("rel.bcnf", root, id)
		frags := rel.BCNF(cover, sc.All())
		tr.end(sp)
		out.frags[sc.Name] = frags
		sp = tr.start("sqlgen.ddl", root, id)
		out.ddl[sc.Name] = sqlgen.DDL(sqlgen.FromFragments(sc, frags, opts), opts)
		tr.end(sp)
		if counts != nil {
			counts.coverFDs += len(cover)
			if sc.Name == s.probeRule {
				counts.propagateCalls += 2
			}
			for _, f := range frags {
				counts.fragWidthMax = max(counts.fragWidthMax, f.Attrs.Card())
			}
		}
	}
	if counts != nil {
		counts.memo += dec.MemoSize()
		counts.intern += dec.Interner().Size()
	}
	return out, nil
}

// checkDesign verifies one schema's design result: the true probe
// propagates and the false one does not, every BCNF decomposition is
// lossless, and on narrow schemas the cover is Armstrong-equivalent to
// Algorithm naive's.
func checkDesign(ctx context.Context, s *schema, out *designOut) error {
	if !out.probeTrue || out.probeFalse {
		return fmt.Errorf("schema %s: probes gave %v/%v, want true/false", s.name, out.probeTrue, out.probeFalse)
	}
	var dec *xmlkey.Decider
	for _, rule := range out.tr.Rules {
		sc := rule.Schema
		if !rel.LosslessJoin(out.covers[sc.Name], sc.All(), out.frags[sc.Name]) {
			return fmt.Errorf("schema %s: table %s: BCNF decomposition is not lossless", s.name, sc.Name)
		}
		if !s.naive {
			continue
		}
		if dec == nil {
			dec = xmlkey.NewDecider(out.sigma)
		}
		naive, err := core.NewEngineWithDecider(dec, rule).NaiveCoverCtx(ctx)
		if err != nil {
			return fmt.Errorf("schema %s: naive cover: %w", s.name, err)
		}
		if !rel.EquivalentCovers(out.covers[sc.Name], naive) {
			return fmt.Errorf("schema %s: table %s: minimum cover is not equivalent to the naive cover", s.name, sc.Name)
		}
	}
	return nil
}

// designRep takes a workload's own schema through the cold design path
// once, timed into p as item 0; the first repetition is checked.
func (r *run) designRep(ctx context.Context, s *schema, p *reps) {
	first := len(p.order) == 0
	t0 := time.Now()
	out, err := coldDesign(ctx, s, nil, 0, nil)
	p.add(0, ms(time.Since(t0)))
	r.attempted++
	if err != nil {
		r.fail("design %s: %v", s.name, err)
		return
	}
	if first {
		if err := checkDesign(ctx, s, out); err != nil {
			r.fail("%v", err)
		}
	}
}

// setDesign records design.* from per-schema latencies.
func (r *run) setDesign(p *reps) {
	passMS, sampled := p.pass()
	r.set("design.p50_ms", "ms", median(p.typical()))
	r.set("design.schemas_s", "schemas/s", float64(len(sampled))/(passMS/1000))
}

// designLayers records the analysis-plane per-layer metrics from one
// traced cold-design pass over the schemas; counts are per pass.
func (r *run) designLayers(ctx context.Context, schemas []schema) {
	var counts designCounts
	fdi0 := rel.FDIndexCompiles()
	h0, m0, _ := rel.ClosureCacheCounters()
	for i := range schemas {
		if _, err := coldDesign(ctx, &schemas[i], r.tr, int64(i), &counts); err != nil {
			r.attempted++
			r.fail("design %s: %v", schemas[i].name, err)
		}
	}
	h1, m1, _ := rel.ClosureCacheCounters()
	r.setDesignCounts(counts, rel.FDIndexCompiles()-fdi0, h1-h0, m1-m0)
	r.setDesignTimes()
}

func (r *run) setDesignCounts(c designCounts, fdi, hits, misses uint64) {
	r.set("xmlkey.memo_entries", "count", float64(c.memo))
	r.set("xpath.intern_entries", "count", float64(c.intern))
	r.set("core.cover_fds", "count", float64(c.coverFDs))
	r.set("core.propagate_calls", "count", float64(c.propagateCalls))
	r.set("rel.bcnf_frag_width_max", "count", float64(c.fragWidthMax))
	r.set("rel.fdindex_compiles", "count", float64(fdi))
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	r.set("rel.closure_hit_ratio", "ratio", ratio)
	r.set("rel.closure_lookups", "count", float64(hits+misses))
}

// setDesignTimes records the total time of every analysis-plane span.
func (r *run) setDesignTimes() {
	lt := r.tr.times()
	for _, n := range []string{"xmlkey.parse", "transform.parse", "xmlkey.decider", "core.cover", "core.propagate", "rel.bcnf", "sqlgen.ddl"} {
		r.set(n+"_s", "s", lt.total[n].Seconds())
	}
}

// designGCPercent is the collector setting of the design workload. Its
// live heap is about 2 MB, since every schema is analysed cold, so at the
// default GOGC of 100 the collector ran some 70 times a second, once per
// 1.7 MB allocated, ten times as often as on the other workloads. Each
// cycle stops both processors twice, and on the shared 2-CPU development
// machine, whose host takes away a varying share of the processors'
// time (steal), those stops made the figures follow the steal: across
// three alternating pairs of runs design.p50_ms spread ±8% at 100 and
// ±1.3% at 400. At 400 the collector still runs about 18 times a
// second, so a change in allocation still shows.
const designGCPercent = 400

func runDesign(r *run) error {
	defer debug.SetGCPercent(debug.SetGCPercent(designGCPercent))
	ctx := context.Background()
	rng := rand.New(rand.NewSource(r.seed))
	set := designSet(rng)

	// Set-up: the program has nothing to prepare, since every schema is
	// analysed cold inside the loop. setup_s is the warm-up that fills the
	// program's lazily built package state: one cold design of the
	// smallest schema, repeated setupRepeats times here and once after
	// every pass of the timed loop (see setupRepeats).
	smallest := 0
	for i := range set {
		if len(set[i].keys)+len(set[i].dsl) < len(set[smallest].keys)+len(set[smallest].dsl) {
			smallest = i
		}
	}
	var setups []float64
	setUp := func() error {
		t0 := time.Now()
		_, err := coldDesign(ctx, &set[smallest], nil, 0, nil)
		setups = append(setups, time.Since(t0).Seconds())
		return err
	}
	for i := 0; i < setupRepeats; i++ {
		if err := setUp(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}

	// Checks, untimed: every schema once, plus the soundness shred of its
	// generated document under the propagated covers.
	var counts designCounts
	fdi0 := rel.FDIndexCompiles()
	h0, m0, _ := rel.ClosureCacheCounters()
	var docs []*loadDoc
	for i := range set {
		s := &set[i]
		r.attempted++
		out, err := coldDesign(ctx, s, nil, int64(i), &counts)
		if err != nil {
			r.fail("design %s: %v", s.name, err)
			continue
		}
		if err := checkDesign(ctx, s, out); err != nil {
			r.fail("%v", err)
		}
		c, err := shred.Compile(out.tr)
		if err != nil {
			r.fail("design %s: compile: %v", s.name, err)
			continue
		}
		// The tuples are counted and dropped, as the server's /v1/shred
		// does: a CSV sink would make these small shreds time the file
		// system more than the data plane.
		l := &loader{sigma: out.sigma, tr: out.tr, covers: out.covers, c: c, discard: true}
		d := &loadDoc{doc: doc{xml: s.docXML}, l: l}
		r.attempted++
		res, err := l.shredDoc(loadCtx(), d.xml, filepath.Join(r.dir, "check"), full, nil, nil, int64(i))
		if err != nil {
			r.fail("design %s: soundness shred: %v", s.name, err)
			continue
		}
		if !res.OK() || res.Tuples() == 0 {
			r.fail("design %s: soundness shred: %d tuples, %d key and %d FD violations",
				s.name, res.Tuples(), len(res.StreamViolations), len(res.Violations))
			continue
		}
		d.tables = map[string]int64{}
		for _, t := range res.Tables {
			d.tables[t.Table] = t.Tuples
		}
		docs = append(docs, d)
	}
	h1, m1, _ := rel.ClosureCacheCounters()
	fdi := rel.FDIndexCompiles() - fdi0

	// loop runs passes over the schemas for d; between, if not nil, runs
	// after each full pass.
	loop := func(d time.Duration, tr *tracer, between func()) *reps {
		p := newReps(len(set))
		order := newShuffled(r.seed, len(set))
		start := time.Now()
		for k := 0; time.Since(start) < d; k++ {
			if k%len(set) == 0 && k > 0 && between != nil {
				between()
			}
			i := order.item(k)
			t0 := time.Now()
			_, err := coldDesign(ctx, &set[i], tr, int64(k), nil)
			p.add(i, ms(time.Since(t0)))
			r.attempted++
			if err != nil {
				r.fail("design %s: %v", set[i].name, err)
			}
		}
		return p
	}

	if r.tr != nil {
		plain := loop(r.seconds/2, nil, nil)
		g0 := readGo()
		traced := loop(r.seconds/2, r.tr, nil)
		g1 := readGo()
		var inBytes int64
		for _, i := range traced.order {
			inBytes += int64(len(set[i].keys) + len(set[i].dsl))
		}
		r.setGoLayer(g0, g1, inBytes)
		r.closedP99(plain)
		plainMS, _ := plain.pass()
		tracedMS, _ := traced.pass()
		r.set("trace.overhead_pct", "%", (tracedMS/plainMS-1)*100)
		r.setDesignCounts(counts, fdi, h1-h0, m1-m0)
		r.setDesignTimes()
		if err := r.dataLayers(loadCtx(), docs, "<r/>"); err != nil {
			return err
		}
		r.setServeLayersIdle()
		return nil
	}

	// load.* comes from the soundness documents, one pass over them after
	// each pass over the schemas, followed by one more set-up.
	small := r.smallShreds(docs)
	p := loop(r.seconds, nil, func() {
		small.pass()
		r.attempted++
		if err := setUp(); err != nil {
			r.fail("set-up: %v", err)
		}
	})
	r.set("setup_s", "s", median(setups))
	r.setDesign(p)
	r.setClosedLatency(p)
	r.setLoad(docs, small.atLeast(3))
	r.set("peak_rss_mb", "MB", peakRSSMB())
	return nil
}

// smallShreds times the shreds of a workload's small documents (design's
// soundness documents, serve's reference documents) for load.*, each
// result checked against the expected counts.
func (r *run) smallShreds(docs []*loadDoc) *interleaved {
	ctx := loadCtx()
	return newInterleaved(r.seed+1, len(docs), func(i int) time.Duration {
		d := docs[i]
		t0 := time.Now()
		res, err := d.l.shredDoc(ctx, d.xml, filepath.Join(r.dir, "small"), full, nil, nil, int64(i))
		el := time.Since(t0)
		r.attempted++
		if err != nil {
			r.fail("document %d: %v", i, err)
		} else if err := d.check(res); err != nil {
			r.fail("document %d: %v", i, err)
		}
		return el
	})
}
