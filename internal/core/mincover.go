package core

import (
	"context"
	"sort"

	"xkprop/internal/budget"
	"xkprop/internal/rel"
	"xkprop/internal/xmlkey"
)

// This file implements Algorithm minimumCover (§5): given a universal
// relation U defined by a table rule and a set Σ of XML keys, compute a
// minimum cover of all the FDs on U propagated from Σ. The pseudocode
// figure falls on the OCR-damaged pages of our source, so the algorithm is
// reconstructed from §5's prose and Example 5.1 (see DESIGN.md):
//
//   - Traverse the table tree top-down. For each variable v, compute its
//     transitive keys: sets of U fields that uniquely identify v's binding
//     in the whole document. A transitive key of v extends a transitive key
//     of a keyed ancestor c with the fields of a relative key of v w.r.t. c
//     (Example 5.1: the key for the section node consists of the key of its
//     chapter ancestor plus section's own @number). A v unique under c
//     (empty key-path set) inherits c's keys unchanged.
//   - Candidate relative keys come only from the keys in Σ (the paper's
//     first search reduction), their attributes must populate U fields at
//     v, and — the null-safety condition — those attributes must be
//     guaranteed to exist on v's nodes (otherwise condition 1 of the FD
//     semantics could be violated).
//   - For every keyed v and every field A populated by a node u unique
//     under v, emit K → A for each transitive key K of v. Keys of the same
//     node are tied by these emissions (each other's attribute fields at v
//     are unique under v), realizing the paper's equivalence property.
//   - Finally run the relational minimize() to obtain a minimum cover.
//
// Transitive-key sets are deduplicated per node; for the key sets the paper
// targets (and the experiment workloads), each node has O(|Σ|) keys and the
// algorithm runs in polynomial time, matching §6's measurements.

// MinimumCover implements Algorithm minimumCover: a minimum cover of all
// FDs on the rule's (universal) relation propagated from Σ. With
// SetWorkers(n > 1) the implication queries behind the candidate search
// fan out across the engine's worker pool; the result is bit-identical to
// the sequential run because candidates are merged in the sequential
// loop's order regardless of which worker decided them.
func (e *Engine) MinimumCover() []rel.FD {
	cands, _ := e.coverCandidates(nil, nil)
	return rel.Minimize(cands)
}

// MinimumCoverCtx is MinimumCover under a context: the candidate search
// aborts as soon as ctx is cancelled or an attached budget runs out,
// returning (nil, err). A partially searched cover is never returned as if
// complete — the only non-nil cover is a fully decided one.
func (e *Engine) MinimumCoverCtx(ctx context.Context) ([]rel.FD, error) {
	cands, err := e.coverCandidates(ctx, nil)
	if err != nil {
		return nil, err
	}
	return rel.Minimize(cands), nil
}

// keyStep stages one candidate extension of a variable's transitive keys
// from keyed ancestor c (an index into the engine's path table): either
// uniqueness inheritance (list < 0) or a relative key over the attribute
// list KeyAttrLists()[list], whose attributes populate the fields set.
// The decision (an implication query) is filled in by the worker pool.
type keyStep struct {
	c      int
	list   int
	fields rel.AttrSet
	ok     bool
}

// emitStep stages one K → A emission candidate: field index fr, populated
// by variable u, under keyed node v; ok records whether u is unique under v.
type emitStep struct {
	v, u, fr int
	ok       bool
}

// coverCandidates generates the pre-minimization FD set F. A nil ctx is
// the legacy unbudgeted path. Every query goes to the decider by interned
// ID through the engine's path table. A non-nil rec records each
// variable's key chains and the emission steps (AnnotatedCover).
func (e *Engine) coverCandidates(ctx context.Context, rec *provenance) ([]rel.FD, error) {
	rule := e.rule
	pt := &e.paths
	lists := e.dec.KeyAttrLists()
	workers := e.queryWorkers()

	keysOf := make([][]rel.AttrSet, len(pt.vars))
	keysOf[0] = []rel.AttrSet{{}}
	order := []int{0}

	var steps, rels []keyStep
	var vKeys keySet
	for v := 1; v < len(pt.vars); v++ {
		vp := &pt.vars[v]
		// Relative keys are drawn from Σ (the paper's search reduction):
		// the attribute lists whose attributes all populate fields at v.
		// σs with equal lists ask the same query and add the same fields,
		// so each distinct list is staged once, at its first σ's position.
		rels = rels[:0]
		for li, l := range lists {
			if fields, ok := e.fieldsOf(v, l.Names()); ok {
				rels = append(rels, keyStep{list: li, fields: fields})
			}
		}
		// Stage the candidate steps for every keyed ancestor of v (nearest
		// last; the root is always first). Decisions depend only on (Σ,
		// rule), not on the keys merged so far, so they can run in any
		// order — only the merge below is order-sensitive.
		steps = steps[:0]
		for _, c := range vp.anc[:len(vp.anc)-1] {
			if len(keysOf[c]) == 0 {
				continue
			}
			// Uniqueness inheritance: v unique under c keeps c's keys.
			steps = append(steps, keyStep{c: c, list: -1})
			for _, r := range rels {
				r.c = c
				steps = append(steps, r)
			}
		}
		err := runIndexedErr(len(steps), workers, func(i int) error {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			st := &steps[i]
			ctxID, tgtID := pt.vars[st.c].up[0], pt.between(st.c, v)
			if st.list < 0 {
				ok, err := e.dec.ImpliesIDCtx(ctx, ctxID, tgtID, xmlkey.AttrList{})
				st.ok = ok
				return err
			}
			l := lists[st.list]
			keyed, err := e.dec.ImpliesIDCtx(ctx, ctxID, tgtID, l)
			if err != nil {
				return err
			}
			// Null safety: the key attributes must exist on v's nodes.
			st.ok = keyed && e.dec.ExistsAllID(vp.up[0], l.Names())
			return nil
		})
		if err != nil {
			return nil, err
		}
		// Merge in staging order — exactly the sequential algorithm's
		// order, so parallel runs produce the same key sets.
		vKeys.reset()
		for _, st := range steps {
			if !st.ok {
				continue
			}
			for _, k := range keysOf[st.c] {
				if st.list < 0 {
					vKeys.add(k)
				} else {
					vKeys.add(k.Union(st.fields))
				}
			}
		}
		if len(vKeys.keys) > 0 {
			keysOf[v] = vKeys.keys
			order = append(order, v)
		}
		if rec != nil {
			if err := rec.record(ctx, v, steps); err != nil {
				return nil, err
			}
		}
	}

	// Emit K → A for each keyed node v, each transitive key K of v, and
	// each field A populated by a variable u unique under v whose LHS
	// existence conditions hold (they do by construction of K). The
	// uniqueness queries fan out; emission order again follows staging
	// order. An attribute variable keys nothing below itself: the decider
	// refutes every goal whose context ends in an attribute step.
	var emits []emitStep
	for _, v := range order {
		if pt.vars[v].attr {
			continue
		}
		for i, fr := range rule.Fields {
			u := pt.index[fr.Var]
			if pt.under(u, v) {
				emits = append(emits, emitStep{v: v, u: u, fr: i})
			}
		}
	}
	err := runIndexedErr(len(emits), workers, func(i int) error {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		st := &emits[i]
		u, err := e.dec.ImpliesIDCtx(ctx, pt.vars[st.v].up[0], pt.between(st.v, st.u), xmlkey.AttrList{})
		st.ok = u
		return err
	})
	if err != nil {
		return nil, err
	}
	if rec != nil {
		rec.emits = emits
	}
	var out []rel.FD
	for _, st := range emits {
		if !st.ok {
			continue
		}
		a := rule.Schema.Index(rule.Fields[st.fr].Field)
		for _, k := range keysOf[st.v] {
			fd := rel.NewFD(k, rel.AttrSet{}.With(a))
			if !fd.IsTrivial() {
				out = append(out, fd)
			}
		}
	}
	return out, nil
}

// keySet collects a variable's transitive keys, each once, in the order
// they were first added; add reports whether k was new. reset starts the
// next variable's set and keeps the membership map's storage.
type keySet struct {
	keys []rel.AttrSet
	seen map[string]struct{}
	buf  []byte
}

func (s *keySet) reset() {
	s.keys = nil
	if s.seen == nil {
		s.seen = make(map[string]struct{})
	}
	clear(s.seen)
}

func (s *keySet) add(k rel.AttrSet) bool {
	s.buf = k.AppendKey(s.buf[:0])
	if _, dup := s.seen[string(s.buf)]; dup {
		return false
	}
	s.seen[string(s.buf)] = struct{}{}
	s.keys = append(s.keys, k)
	return true
}

// fieldsOf maps key attributes to the U fields populated by v's attribute
// children; ok is false unless every attribute populates a field.
func (e *Engine) fieldsOf(v int, attrs []string) (rel.AttrSet, bool) {
	var fields rel.AttrSet
	for _, a := range attrs {
		found := false
		for _, af := range e.paths.vars[v].attrFields {
			if af.name == a {
				fields = fields.With(af.field)
				found = true
				break
			}
		}
		if !found {
			return rel.AttrSet{}, false
		}
	}
	return fields, true
}

// GPropagates implements the GminimumCover check of §6: compute (once) a
// minimum cover of all propagated FDs, then decide X → Y by relational FD
// implication plus the null-safety condition that every X field is
// guaranteed non-null whenever the corresponding Y field is non-null.
func (e *Engine) GPropagates(fd rel.FD) bool {
	ok, _ := e.gPropagates(nil, fd)
	return ok
}

// GPropagatesCtx is GPropagates under a context. A cover build aborted by
// cancellation or budget exhaustion is not cached, so a later call with a
// live context still builds it.
func (e *Engine) GPropagatesCtx(ctx context.Context, fd rel.FD) (bool, error) {
	return e.gPropagates(ctx, fd)
}

// CachedCoverCtx returns the engine's minimum cover, building it on first
// use and serving every later call from the cache — the request/response
// entry point, where many callers share one compiled engine and only the
// first pays for the build. An aborted build (cancellation, budget) leaves
// the cache empty, so a later call with a live context still succeeds.
func (e *Engine) CachedCoverCtx(ctx context.Context) ([]rel.FD, error) {
	cover, _, err := e.minCoverCached(ctx, nil)
	return cover, err
}

// minCoverCached returns the lazily built cover and its compiled FD index,
// building both at most once successfully; failed builds leave the cache
// empty. A non-nil rec (AnnotatedCover) runs the candidate search even
// when the cover is cached, to record it, and a cover built from that
// search fills the cache. The index's closure cache is capped by
// budget.MaxClosureEntries (0 = the rel package default).
func (e *Engine) minCoverCached(ctx context.Context, rec *provenance) ([]rel.FD, *rel.FDIndex, error) {
	e.coverMu.Lock()
	defer e.coverMu.Unlock()
	if e.coverBuilt && rec == nil {
		return e.cover, e.coverIdx, nil
	}
	cands, err := e.coverCandidates(ctx, rec)
	if err != nil {
		return nil, nil, err
	}
	if !e.coverBuilt {
		cover := rel.Minimize(cands)
		ix := rel.NewFDIndex(cover)
		limit := 0
		if b := budget.From(ctx); b != nil {
			limit = b.MaxClosureEntries
		}
		ix.EnableCache(limit)
		e.cover, e.coverIdx, e.coverBuilt = cover, ix, true
	}
	return e.cover, e.coverIdx, nil
}

// CandidateKeysCtx enumerates the minimal keys of the rule's relation under
// the cached cover, reusing the engine's compiled FD index so warm requests
// skip both the cover build and index construction.
func (e *Engine) CandidateKeysCtx(ctx context.Context, limit int) ([]rel.AttrSet, error) {
	_, ix, err := e.minCoverCached(ctx, nil)
	if err != nil {
		return nil, err
	}
	return rel.CandidateKeysIndexedCtx(ctx, ix, e.rule.Schema.All(), limit)
}

// ClosureCacheLen reports the resident entries of the cover index's
// closure-set cache (0 until the cover is built) — a metrics read.
func (e *Engine) ClosureCacheLen() int {
	e.coverMu.Lock()
	defer e.coverMu.Unlock()
	if e.coverIdx == nil {
		return 0
	}
	return e.coverIdx.CacheLen()
}

func (e *Engine) gPropagates(ctx context.Context, fd rel.FD) (bool, error) {
	_, ix, err := e.minCoverCached(ctx, nil)
	if err != nil {
		return false, err
	}
	if !ix.Implies(fd) {
		return false, nil
	}
	// The cover settles condition 2, so the walk only discharges the LHS
	// fields (condition 1) and asks the decider nothing.
	return e.walkRHS(ctx, fd, false)
}

// CoverAsStrings renders a cover with the schema's field names, sorted, for
// stable display and golden tests.
func (e *Engine) CoverAsStrings(cover []rel.FD) []string {
	out := make([]string, len(cover))
	for i, f := range cover {
		out[i] = f.Format(e.rule.Schema)
	}
	sort.Strings(out)
	return out
}
