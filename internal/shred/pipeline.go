package shred

// The pipeline: one goroutine owns the xmltok tokenizer and the streaming
// evaluator (and, when a key set is supplied, the stream validator — both
// consume the same single token pass). A block of bindings is processed
// where it closes: its rule enumerates the product, deduplicates each
// row, runs it through the FD guard and batches it to the rule's sink
// before the next token is read. A run is one loop with one error path,
// and every rule's sink receives its tuples in document order.

import (
	"context"
	"io"
	"runtime"
	"strconv"
	"strings"

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
	// BatchSize is the tuples per sink WriteBatch (<=0 = DefaultBatchSize).
	BatchSize int
	// Sigma, when non-nil, runs the stream key validator over the same
	// token pass; violations land in Result.StreamViolations.
	Sigma []xmlkey.Key
	// Covers maps table name → FDs to enforce online (typically the
	// propagated minimum cover). Tables absent from the map are shredded
	// without enforcement.
	Covers map[string][]rel.FD
	// Metrics receives shred.{tuples,batches,fd_checks,violations}; nil
	// publishes to a private throwaway set.
	Metrics *metrics.Set
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

// ctxCheckRows is how many enumerated rows a rule goes between checks of
// the run context, so a cancelled run stops inside a large block: one
// block can hold tens of thousands of rows between two tokens.
const ctxCheckRows = 1024

// ruleState is one rule's per-run state.
type ruleState struct {
	cr       *crule
	w        TableWriter
	guard    *fdGuard
	prod     product
	dedup    map[string]bool
	scratch  []byte      // reusable tuple-key encoding buffer
	slab     []rel.Value // unused tail of the current tuple slab
	pending  []rel.Tuple
	rows     uint64 // rows enumerated, for the periodic context check
	tuples   int64
	batches  int64
	violSeen int64 // guard violations already counted into the metrics
}

// runCaps holds the run-wide counts that the budget's FD-index and
// violation caps bound, shared by drive and every rule's FD guard.
type runCaps struct {
	fdEntries, maxFDEntries int
	// violations counts the key and FD violations collected so far.
	violations, maxViolations int
}

// addViolations counts n newly collected key or FD violations and aborts
// the run once the total reaches MaxViolations — the rule
// stream.Validator.RunCtx applies to key violations alone.
func (rc *runCaps) addViolations(n int) error {
	rc.violations += n
	if rc.maxViolations > 0 && rc.violations >= rc.maxViolations {
		return budget.Exceeded("shred", budget.Violations, rc.maxViolations)
	}
	return nil
}

// pipelineMetrics bundles the exported counters.
type pipelineMetrics struct {
	tuples, batches, fdChecks, violations *expvar.Int
}

// Run shreds one document from input into sink. The context carries
// cancellation and an optional budget.Budget: MaxTuples and
// MaxFDIndexEntries abort (never evict — see the budget package),
// MaxStreamDepth bounds nesting, and MaxViolations aborts the run once
// the collected key and FD violations together reach it.
func (c *Compiled) Run(ctx context.Context, input io.Reader, sink Sink, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
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
	}
	var maxTuples, maxDepth int
	caps := &runCaps{}
	if b := budget.From(ctx); b != nil {
		maxTuples, maxDepth = b.MaxTuples, b.MaxStreamDepth
		caps.maxFDEntries, caps.maxViolations = b.MaxFDIndexEntries, b.MaxViolations
	}

	states := make([]*ruleState, len(c.rules))
	for ri, cr := range c.rules {
		w, err := sink.Open(cr.rule.Schema)
		if err != nil {
			for _, st := range states[:ri] {
				st.w.Close()
			}
			return nil, err
		}
		st := &ruleState{cr: cr, w: w, prod: newProduct(cr), dedup: map[string]bool{}}
		if fds := opts.Covers[cr.rule.Schema.Name]; len(fds) > 0 {
			st.guard = newFDGuard(cr.rule.Schema.Name, cr.rule.Schema, fds, caps)
		}
		states[ri] = st
	}

	// One tokenizer pass feeds evaluator and validator. The key paths
	// compile into the shared interner, so the tokenizer's fused label
	// codes line up with the validator's NFAs too.
	src := xmltok.New(input, c.in)
	var v *stream.Validator
	if opts.Sigma != nil {
		v = stream.NewValidatorIn(c.in, opts.Sigma)
	}
	ev := c.newEvaluator(maxTuples, func(ri int, blk block) error {
		return states[ri].process(ctx, blk, batchSize, pm)
	})
	err := c.drive(ctx, src, ev, v, maxDepth, caps)
	if err == nil && !ev.rootClosed {
		err = &stream.DecodeError{Offset: src.InputOffset(), Err: io.ErrUnexpectedEOF}
	}
	if err == nil {
		// A context that ended after the last block closed still ends the
		// run: no Result counts rows the sink never got.
		err = ctx.Err()
	}
	for _, st := range states {
		if err != nil {
			break
		}
		err = st.writeBatch(pm)
	}
	for _, st := range states {
		if cerr := st.w.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		return nil, err
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
	// An inline run never parks its goroutine, so with one P the GC's
	// background mark worker runs only when the scheduler does. Channel
	// hand-offs to per-rule goroutines used to give it that chance; one
	// yield per run does now. Without it, back-to-back runs at
	// GOMAXPROCS=1 (the BENCH_shred cells) read past their ceilings, and
	// with GOGC=off the gap goes away.
	if runtime.GOMAXPROCS(0) == 1 {
		runtime.Gosched()
	}
	return res, nil
}

// drive owns the single tokenizer pass: every token is checked against
// the context, offered to the validator, and fed to the evaluator, which
// processes each block as it closes. Token offsets are the byte of the
// start tag's '<', so validator violations and evaluator lineage agree
// with the tree plane byte for byte.
func (c *Compiled) drive(ctx context.Context, src *xmltok.Tokenizer, ev *evaluator, v *stream.Validator, maxDepth int, caps *runCaps) error {
	keyViol := 0 // validator violations already counted into caps
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
			if v != nil && len(v.Violations()) > keyViol {
				n := len(v.Violations())
				err := caps.addViolations(n - keyViol)
				keyViol = n
				if err != nil {
					return err
				}
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

// process enumerates one closed block's product for its rule: online
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

// EvalStreaming shreds one document through the streaming pipeline into
// memory and canonicalizes each table (sorted, already deduplicated
// online), so the result is directly comparable with Rule.Eval over the
// parsed tree — the differential tests' contract.
func EvalStreaming(tr *transform.Transformation, input io.Reader) (map[string]*rel.Relation, error) {
	ms := NewMemorySink()
	if _, err := Run(context.Background(), tr, input, ms, Options{}); err != nil {
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
