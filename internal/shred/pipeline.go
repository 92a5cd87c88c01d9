package shred

// The pipeline: one goroutine owns the xmltok.Source and the streaming
// evaluator (and, when a key set is supplied, the stream validator — both
// consume the same single token pass); closed blocks of bindings fan out
// to one worker goroutine per rule over bounded channels, gated by a
// semaphore of Options.Workers execution slots. Each worker enumerates
// its blocks' products itself, strictly in channel (= document) order,
// so sink bytes are identical for -workers 1 and -workers N; parallelism
// comes from different rules progressing concurrently, never from
// reordering one rule's tuples.

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"expvar"

	"xkprop/internal/budget"
	"xkprop/internal/metrics"
	"xkprop/internal/rel"
	"xkprop/internal/stream"
	"xkprop/internal/transform"
	"xkprop/internal/xmlkey"
	"xkprop/internal/xmltok"
)

// DefaultBatchSize is the tuple batch handed to sinks when Options leaves
// BatchSize zero.
const DefaultBatchSize = 256

// Options configures one Run.
type Options struct {
	// Workers caps concurrently executing rule workers (<=0 = GOMAXPROCS).
	// It never affects output bytes, only parallelism across rules.
	Workers int
	// BatchSize is the tuples per sink WriteBatch (<=0 = DefaultBatchSize).
	BatchSize int
	// Sigma, when non-nil, runs the stream key validator over the same
	// token pass; violations land in Result.StreamViolations.
	Sigma []xmlkey.Key
	// Covers maps table name → FDs to enforce online (typically the
	// propagated minimum cover). Tables absent from the map are shredded
	// without enforcement.
	Covers map[string][]rel.FD
	// Metrics receives shred.{tuples,batches,fd_checks,violations,
	// queue_depth}; nil publishes to a private throwaway set.
	Metrics *metrics.Set
	// Decoder selects the tokenizer: xmltok.DecoderFast (default, also
	// "") or xmltok.DecoderStd for the encoding/xml oracle. Output bytes
	// are identical either way; std exists for differential checking.
	Decoder string
}

// TableCount is one table's output tally.
type TableCount struct {
	Table   string `json:"table"`
	Tuples  int64  `json:"tuples"`
	Batches int64  `json:"batches"`
}

// Result is the outcome of one successful (possibly violating, never
// aborted) run. Abort-soundness: any error from Run means no Result at
// all — a partial violation list is never presented as the verdict.
type Result struct {
	Tables           []TableCount       `json:"tables"`
	Violations       []FDViolation      `json:"violations,omitempty"`
	StreamViolations []stream.Violation `json:"-"`
}

// Accepted reports whether the stream validator accepted the document
// (vacuously true when no key set was supplied).
func (r *Result) Accepted() bool { return len(r.StreamViolations) == 0 }

// OK reports a fully clean run: document accepted and no FD violated.
func (r *Result) OK() bool { return r.Accepted() && len(r.Violations) == 0 }

// Tuples sums the per-table tuple counts.
func (r *Result) Tuples() int64 {
	var n int64
	for _, t := range r.Tables {
		n += t.Tuples
	}
	return n
}

// Run compiles tr and shreds one document. See Compiled.Run.
func Run(ctx context.Context, tr *transform.Transformation, input io.Reader, sink Sink, opts Options) (*Result, error) {
	c, err := Compile(tr)
	if err != nil {
		return nil, err
	}
	return c.Run(ctx, input, sink, opts)
}

// ctxCheckRows is how many enumerated rows a worker goes between checks
// of the run context, so a cancelled run stops inside a large block.
const ctxCheckRows = 1024

// ruleState is one rule's worker-side state.
type ruleState struct {
	cr       *crule
	w        TableWriter
	guard    *fdGuard
	ch       chan block
	prod     product
	dedup    map[string]bool
	scratch  []byte      // reusable tuple-key encoding buffer
	slab     []rel.Value // unused tail of the current tuple slab
	pending  []rel.Tuple
	rows     uint64 // rows enumerated, for the periodic context check
	tuples   int64
	batches  int64
	violSeen int64 // guard violations already counted into the metrics
	err      error
}

// pipelineMetrics bundles the exported counters.
type pipelineMetrics struct {
	tuples, batches, fdChecks, violations *expvar.Int
	queueDepth                            *expvar.Int
}

// Run shreds one document from input into sink. The context carries
// cancellation and an optional budget.Budget: MaxTuples and
// MaxFDIndexEntries abort (never evict — see the budget package),
// MaxStreamDepth bounds nesting, MaxViolations caps collected stream and
// FD violations combined with an abort once exceeded.
func (c *Compiled) Run(ctx context.Context, input io.Reader, sink Sink, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	batchSize := opts.BatchSize
	if batchSize <= 0 {
		batchSize = DefaultBatchSize
	}
	set := opts.Metrics
	if set == nil {
		set = metrics.NewSet()
	}
	pm := &pipelineMetrics{
		tuples:     set.Counter("shred.tuples"),
		batches:    set.Counter("shred.batches"),
		fdChecks:   set.Counter("shred.fd_checks"),
		violations: set.Counter("shred.violations"),
		queueDepth: set.Gauge("shred.queue_depth"),
	}
	var maxTuples, maxFDEntries, maxDepth, maxViol int
	if b := budget.From(ctx); b != nil {
		maxTuples, maxFDEntries = b.MaxTuples, b.MaxFDIndexEntries
		maxDepth, maxViol = b.MaxStreamDepth, b.MaxViolations
	}
	// One tokenizer pass feeds evaluator and validator; opening it first
	// also rejects an unknown Options.Decoder before any sink is touched.
	src, err := xmltok.Open(opts.Decoder, input, c.in)
	if err != nil {
		return nil, err
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var fdEntries, violTotal atomic.Int64
	states := make([]*ruleState, len(c.rules))
	for ri, cr := range c.rules {
		w, err := sink.Open(cr.rule.Schema)
		if err != nil {
			for _, st := range states[:ri] {
				st.w.Close()
			}
			return nil, err
		}
		st := &ruleState{
			cr: cr, w: w,
			ch:    make(chan block, 4),
			prod:  newProduct(cr),
			dedup: map[string]bool{},
		}
		if fds := opts.Covers[cr.rule.Schema.Name]; len(fds) > 0 {
			st.guard = newFDGuard(cr.rule.Schema.Name, cr.rule.Schema, fds,
				&fdEntries, maxFDEntries, &violTotal, maxViol)
		}
		states[ri] = st
	}
	closeWriters := func() error {
		var first error
		for _, st := range states {
			if err := st.w.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}

	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for _, st := range states {
		wg.Add(1)
		go func(st *ruleState) {
			defer wg.Done()
			// A worker the run context stops before its final flush records
			// the context's error: its sink holds a partial instance.
			for blk := range st.ch {
				pm.queueDepth.Add(-1)
				if st.err == nil {
					st.err = runCtx.Err()
				}
				if st.err != nil {
					continue // drain so the producer never blocks
				}
				sem <- struct{}{}
				err := st.process(runCtx, blk, batchSize, pm)
				<-sem
				if err != nil {
					st.err = err
					cancel()
				}
			}
			if st.err == nil {
				st.err = runCtx.Err()
			}
			if st.err == nil {
				if err := st.flush(pm); err != nil {
					st.err = err
					cancel()
				}
			}
		}(st)
	}

	emit := func(ri int, blk block) error {
		pm.queueDepth.Add(1)
		select {
		case states[ri].ch <- blk:
			return nil
		case <-runCtx.Done():
			pm.queueDepth.Add(-1)
			return runCtx.Err()
		}
	}

	var v *stream.Validator
	if opts.Sigma != nil {
		// The key paths compile into the shared interner, so the tokenizer's
		// fused label codes line up with the validator's NFAs too.
		v = stream.NewValidatorIn(c.in, opts.Sigma)
	}
	ev := c.newEvaluator(maxTuples, emit)
	runErr := c.drive(runCtx, src, ev, v, maxDepth, maxViol)
	if runErr == nil && !ev.rootClosed {
		var off int64
		if so, ok := src.(interface{ InputOffset() int64 }); ok {
			off = so.InputOffset()
		}
		runErr = &stream.DecodeError{Offset: off, Err: io.ErrUnexpectedEOF}
	}
	if runErr != nil {
		cancel() // workers skip their final flush
	}
	for _, st := range states {
		close(st.ch)
	}
	wg.Wait()
	closeErr := closeWriters()

	// A worker's typed error (budget, sink I/O) beats the bare
	// context.Canceled its cancellation caused upstream; a parent deadline
	// or cancellation stays authoritative.
	var werr error
	for _, st := range states {
		if st.err != nil && !errors.Is(st.err, context.Canceled) {
			werr = st.err
			break
		}
	}
	if werr != nil && (runErr == nil || errors.Is(runErr, context.Canceled)) {
		runErr = werr
	}
	// Otherwise a worker stopped by the run context alone ends the run in
	// that context's error: no Result counts rows the sink never got.
	if runErr == nil {
		for _, st := range states {
			if st.err != nil {
				runErr = st.err
				break
			}
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	if closeErr != nil {
		return nil, closeErr
	}

	res := &Result{}
	for _, st := range states {
		res.Tables = append(res.Tables, TableCount{
			Table: st.cr.rule.Schema.Name, Tuples: st.tuples, Batches: st.batches,
		})
		if st.guard != nil {
			res.Violations = append(res.Violations, st.guard.violations...)
		}
	}
	if v != nil {
		res.StreamViolations = v.Violations()
	}
	return res, nil
}

// drive owns the single tokenizer pass: every token is checked against
// the context, offered to the validator, and fed to the evaluator. Token
// offsets are the byte of the start tag's '<', so validator violations
// and evaluator lineage agree with the tree plane byte for byte.
func (c *Compiled) drive(ctx context.Context, src xmltok.Source, ev *evaluator, v *stream.Validator, maxDepth, maxViol int) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		tok, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return stream.WrapTokenError(err)
		}
		switch tok.Kind {
		case xmltok.StartElement:
			if maxDepth > 0 && len(ev.stack) >= maxDepth {
				return budget.Exceeded("shred", budget.StreamDepth, maxDepth)
			}
			if v != nil {
				if err := v.Feed(tok); err != nil {
					return err
				}
			}
			if err := ev.startElement(tok); err != nil {
				return err
			}
			if v != nil && maxViol > 0 && len(v.Violations()) >= maxViol {
				return budget.Exceeded("shred", budget.Violations, maxViol)
			}
		case xmltok.EndElement:
			if v != nil {
				if err := v.Feed(tok); err != nil {
					return err
				}
			}
			if err := ev.endElement(); err != nil {
				return err
			}
		case xmltok.CharData:
			if err := ev.charData(tok.Data); err != nil {
				return err
			}
		}
	}
}

// appendTupleKey appends the dedup identity of a tuple: "N\x00" per null,
// "V<decimal len>:<bytes>\x00" per value. The encoding is pinned by
// TestTupleKeyEncodingUnchanged — it must stay byte-equal to the
// fmt.Fprintf("V%d:%s\x00") form it replaced.
func appendTupleKey(dst []byte, t rel.Tuple) []byte {
	for _, v := range t {
		if v.Null {
			dst = append(dst, 'N', 0)
			continue
		}
		dst = append(dst, 'V')
		dst = strconv.AppendInt(dst, int64(len(v.S)), 10)
		dst = append(dst, ':')
		dst = append(dst, v.S...)
		dst = append(dst, 0)
	}
	return dst
}

// process enumerates one block's product on the rule's worker: online
// dedup (set semantics, first occurrence kept — matching the tree
// evaluator's Dedup), FD enforcement, then batched sink writes. Rows are
// built in the product's scratch tuple; only a distinct one is copied.
func (st *ruleState) process(ctx context.Context, blk block, batchSize int, pm *pipelineMetrics) error {
	defer release(blk.b)
	p := &st.prod
	p.first(blk.b)
	for left := blk.rows; ; left-- {
		if st.rows++; st.rows%ctxCheckRows == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		st.scratch = appendTupleKey(st.scratch[:0], p.row)
		if !st.dedup[string(st.scratch)] {
			st.dedup[string(st.scratch)] = true
			if err := st.add(p.row, p.lin, left, batchSize, pm); err != nil {
				return err
			}
		}
		if !p.next() {
			return nil
		}
	}
}

// add copies a distinct row once, into the current slab, runs the copy
// through the FD guard and appends it to the pending batch. A new slab or
// batch is sized for min(batchSize, rows left in the block) tuples, so a
// small document does not pay for a full batch.
func (st *ruleState) add(row rel.Tuple, lin lineage, left uint64, batchSize int, pm *pipelineMetrics) error {
	room := batchSize
	if left < uint64(room) {
		room = int(left)
	}
	w := len(row)
	if len(st.slab) < w {
		st.slab = make([]rel.Value, room*w)
	}
	t := st.slab[:w:w]
	st.slab = st.slab[w:]
	copy(t, row)
	if st.guard != nil {
		before := st.guard.checks
		err := st.guard.check(t, lin)
		pm.fdChecks.Add(st.guard.checks - before)
		if n := int64(len(st.guard.violations)); n > st.violSeen {
			pm.violations.Add(n - st.violSeen)
			st.violSeen = n
		}
		if err != nil {
			return err
		}
	}
	if st.pending == nil {
		st.pending = make([]rel.Tuple, 0, room)
	}
	st.pending = append(st.pending, t)
	st.tuples++
	pm.tuples.Add(1)
	if len(st.pending) >= batchSize {
		return st.writeBatch(pm)
	}
	return nil
}

func (st *ruleState) writeBatch(pm *pipelineMetrics) error {
	if len(st.pending) == 0 {
		return nil
	}
	batch := st.pending
	st.pending = nil // the sink may retain the slice
	if err := st.w.WriteBatch(batch); err != nil {
		return err
	}
	st.batches++
	pm.batches.Add(1)
	return nil
}

func (st *ruleState) flush(pm *pipelineMetrics) error {
	return st.writeBatch(pm)
}

// EvalStreaming shreds one document through the streaming pipeline into
// memory and canonicalizes each table (sorted, already deduplicated
// online), so the result is directly comparable with Rule.Eval over the
// parsed tree — the differential tests' contract.
func EvalStreaming(tr *transform.Transformation, input io.Reader) (map[string]*rel.Relation, error) {
	ms := NewMemorySink()
	if _, err := Run(context.Background(), tr, input, ms, Options{Workers: 1}); err != nil {
		return nil, err
	}
	out := ms.Relations()
	for _, r := range out {
		r.Sort()
	}
	return out, nil
}

// EvalStreamingString is EvalStreaming over a string.
func EvalStreamingString(tr *transform.Transformation, doc string) (map[string]*rel.Relation, error) {
	return EvalStreaming(tr, strings.NewReader(doc))
}
