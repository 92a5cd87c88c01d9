package xmlkey

import (
	"context"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"xkprop/internal/budget"
	"xkprop/internal/xpath"
)

// This file implements Algorithm implication of the paper (described in §4
// and detailed only in the full version, TR MS-CIS-02-16): deciding whether
// a set Σ of K̄ keys implies a key φ, written Σ ⊨ φ — φ holds in every XML
// tree that satisfies all keys of Σ.
//
// The procedure is a memoized search over a system of inference rules in
// the style of the paper's companion work (Buneman et al., "Reasoning about
// keys for XML", DBPL'01), adapted to the strict semantics of Definition
// 2.1 (key attributes must exist on every target node):
//
//	epsilon            (Q, (ε, ∅)) always holds: a subtree has one root.
//	attribute-step     (Q, (P/@a, ∅)) ⇐ (Q, (P, ∅)): at most one @a per node.
//	direct             σ = (Qσ, (Q'σ, Sσ)) implies (Q, (Q', S)) when
//	                   Sσ ⊆ S, the extra attributes S∖Sσ are guaranteed to
//	                   exist on Q/Q' nodes (ExistsAll), and for some split
//	                   Q'σ ≡ P1/P2: Q ⊆ Qσ/P1 and Q' ⊆ P2. The split is the
//	                   paper's target-to-context rule; the two containments
//	                   are the context- and target-containment weakenings.
//	unique-target      (Q, (Q', S)) ⇐ (Q, (Q', ∅)) when S exists on Q/Q'
//	                   nodes: with at most one target node per context,
//	                   condition 2 is vacuous and only existence remains.
//	unique-prefix      (Q, (Q1/Q2, S)) ⇐ (Q, (Q1, ∅)) ∧ (Q/Q1, (Q2, S)):
//	                   with at most one Q1 node per context, all Q1/Q2
//	                   nodes share that node, so the relative key applies.
//
// The rules are sound for Definition 2.1 (see the package tests, which
// include a model-based soundness check against randomized trees). We do
// not claim completeness for arbitrary K̄ — the paper defers the full
// axiomatization to DBPL'01 — but the procedure decides every implication
// exercised by the paper's examples and experiments.
//
// Performance: all path reasoning runs over an interned path universe
// (xpath.Interner). Sub-goals are identified by (ctxID, tgtID, attrsID)
// integer triples rather than rendered strings; containment queries go
// through the interner's compiled kernel and its pairwise verdict cache;
// and each σ's split decompositions (with their Qσ/P1 concatenations) are
// computed once per Decider instead of per prove call.

// Implies reports whether Σ ⊨ φ.
func Implies(sigma []Key, phi Key) bool {
	return NewDecider(sigma).Implies(phi)
}

// ImpliesCtx reports whether Σ ⊨ φ under a context carrying cancellation
// and an optional budget.Budget; see Decider.ImpliesCtx.
func ImpliesCtx(ctx context.Context, sigma []Key, phi Key) (bool, error) {
	return NewDecider(sigma).ImpliesCtx(ctx, phi)
}

// ImpliesAll reports whether Σ implies every key in phis.
func ImpliesAll(sigma []Key, phis []Key) bool {
	d := NewDecider(sigma)
	for _, phi := range phis {
		if !d.Implies(phi) {
			return false
		}
	}
	return true
}

// Decider is a reusable implication context over a fixed Σ; it caches
// sub-goals across queries, which matters inside the propagation and
// minimum-cover algorithms that issue many related queries.
//
// A Decider is safe for concurrent use: the memo table holds only
// definitive, query-order-independent results behind sharded read/write
// locks, while the cycle-cutting bookkeeping of one in-flight query lives
// in per-query state drawn from a pool. Concurrent queries may prove the
// same sub-goal twice, but they always agree on the answer, so the shared
// table stays consistent and warm sub-goals are served lock-read-only.
type Decider struct {
	sigma  []Key
	in     *xpath.Interner
	attrs  attrTable
	sigs   []sigCompiled
	lists  []AttrList // Σ's distinct non-empty attribute lists
	shards [memoShards]memoShard
	pool   sync.Pool // *query, reused so warm calls allocate nothing

	// memoCount approximates the shared memo's size (entries ever
	// published; concurrent provers of the same goal may double-count,
	// which only makes the budget check conservative).
	memoCount atomic.Int64
}

// sigCompiled is the per-σ data the direct rule and the existence closure
// need, computed once per Decider: the sorted attribute list, the interned
// Qσ/Q'σ root-target path, and the split decompositions Q'σ ≡ P1/P2 with
// Qσ/P1 pre-concatenated and interned.
type sigCompiled struct {
	attrs   []string
	rootTgt xpath.ID
	splits  []sigSplit
}

// sigSplit is one decomposition of σ's target: ctxPre = intern(Qσ/P1),
// suf = intern(P2).
type sigSplit struct {
	ctxPre, suf xpath.ID
}

// goal identifies one sub-goal (Q, (Q', S)) by interned integers. Using
// the triple instead of a rendered string key makes memo hits a struct
// hash away and keeps the hot path allocation-free.
type goal struct {
	ctx, tgt xpath.ID
	attrs    uint32
}

// memoShards spreads goal keys over independently locked maps so parallel
// propagation checks do not serialize on one mutex.
const memoShards = 16

type memoShard struct {
	mu sync.RWMutex
	m  map[goal]bool // goal -> proved (true) / refuted (false)
}

func (s *memoShard) get(g goal) (res, ok bool) {
	s.mu.RLock()
	res, ok = s.m[g]
	s.mu.RUnlock()
	return res, ok
}

func (s *memoShard) put(g goal, res bool) {
	s.mu.Lock()
	s.m[g] = res
	s.mu.Unlock()
}

// AttrList is a normalized attribute list interned in one Decider: the
// attribute argument of ImpliesIDCtx, which therefore sorts, joins and
// interns nothing. The zero value is the empty list.
type AttrList struct {
	names []string
	id    uint32
}

// Names returns the sorted, '@'-less attribute names. The slice is shared
// and must not be modified.
func (a AttrList) Names() []string { return a.names }

// attrTable interns normalized (sorted, deduplicated) attribute lists to
// dense IDs. ID 0 is the empty list. Interning happens once per top-level
// query — the per-goal strings.Join of the string-keyed design is gone.
type attrTable struct {
	mu sync.RWMutex
	m  map[string]uint32
}

func (t *attrTable) intern(attrs []string) uint32 {
	if len(attrs) == 0 {
		return 0
	}
	key := strings.Join(attrs, "\x00")
	t.mu.RLock()
	id, ok := t.m[key]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.m[key]; ok {
		return id
	}
	id = uint32(len(t.m) + 1)
	t.m[key] = id
	return id
}

// NewDecider returns a Decider for the key set sigma.
func NewDecider(sigma []Key) *Decider {
	d := &Decider{
		sigma: sigma,
		in:    xpath.NewInterner(),
	}
	d.attrs.m = make(map[string]uint32)
	for i := range d.shards {
		d.shards[i].m = make(map[goal]bool)
	}
	d.sigs = make([]sigCompiled, 0, len(sigma))
	for _, sig := range sigma {
		ctx := sig.Context.Normalize()
		tgt := sig.Target.Normalize()
		sc := sigCompiled{
			attrs:   normalizeAttrs(sig.Attrs),
			rootTgt: d.in.Intern(ctx.Concat(tgt)),
		}
		if len(sc.attrs) > 0 {
			l := AttrList{names: sc.attrs, id: d.attrs.intern(sc.attrs)}
			if !slices.ContainsFunc(d.lists, func(x AttrList) bool { return x.id == l.id }) {
				d.lists = append(d.lists, l)
			}
		}
		seen := make(map[sigSplit]bool)
		for _, sp := range splitsAll(tgt) {
			s := sigSplit{
				ctxPre: d.in.Intern(ctx.Concat(sp.prefix)),
				suf:    d.in.Intern(sp.suffix),
			}
			if seen[s] {
				continue
			}
			seen[s] = true
			sc.splits = append(sc.splits, s)
		}
		d.sigs = append(d.sigs, sc)
	}
	d.pool.New = func() any {
		return &query{d: d, local: make(map[goal]int32)}
	}
	return d
}

// Implies reports whether Σ ⊨ φ.
func (dc *Decider) Implies(phi Key) bool {
	return dc.ImpliesCT(phi.Context, phi.Target, phi.Attrs)
}

// ImpliesCT reports whether Σ implies the key (context, (target, attrs))
// without requiring the caller to build a Key value; the propagation and
// cover algorithms issue thousands of such queries per run.
func (dc *Decider) ImpliesCT(c, t xpath.Path, attrs []string) bool {
	res, _ := dc.impliesCT(nil, c, t, attrs)
	return res
}

// ImpliesCtx is Implies under a context: cancellation (and any
// budget.Budget carried by ctx) is checked at proof-step granularity, so
// the call returns promptly with ctx.Err() or a typed *budget.Error even
// on adversarial goals. A nil ctx behaves exactly like Implies.
func (dc *Decider) ImpliesCtx(ctx context.Context, phi Key) (bool, error) {
	return dc.impliesCT(ctx, phi.Context, phi.Target, phi.Attrs)
}

// ImpliesCTCtx is ImpliesCT under a context; see ImpliesCtx.
func (dc *Decider) ImpliesCTCtx(ctx context.Context, c, t xpath.Path, attrs []string) (bool, error) {
	return dc.impliesCT(ctx, c, t, attrs)
}

// KeyAttrLists returns the distinct non-empty attribute lists of Σ's
// keys, in order of first occurrence, interned once by NewDecider.
func (dc *Decider) KeyAttrLists() []AttrList { return dc.lists }

// ImpliesIDCtx is ImpliesCTCtx over a context and a target interned in
// dc.Interner() and an attribute list from KeyAttrLists (or the zero
// AttrList for ∅). A goal already in the shared memo is answered by one
// memo read, with no Path built. The IDs may be attribute-final: the
// attribute-step reduction then runs as in ImpliesCTCtx, but a caller that
// interns the stripped target itself hits the memo directly.
func (dc *Decider) ImpliesIDCtx(ctx context.Context, c, t xpath.ID, attrs AttrList) (bool, error) {
	g := goal{ctx: c, tgt: t, attrs: attrs.id}
	if res, ok := dc.shardFor(g).get(g); ok {
		return res, nil
	}
	return dc.run(ctx, dc.in.PathOf(c), dc.in.PathOf(t), attrs.names, attrs.id)
}

// impliesCT runs one top-level query over Path arguments. With a nil ctx
// no abort checks run and the error is always nil — the legacy entry
// points keep their exact cost. On abort the verdict is false and must be
// discarded.
func (dc *Decider) impliesCT(ctx context.Context, c, t xpath.Path, attrs []string) (bool, error) {
	attrs = normalizeAttrsIfNeeded(attrs)
	return dc.run(ctx, c.Normalize(), t.Normalize(), attrs, dc.attrs.intern(attrs))
}

// run answers one top-level query on a pooled query state; q and t are
// normalized and attrsID is the interned ID of the normalized attrs.
func (dc *Decider) run(ctx context.Context, q, t xpath.Path, attrs []string, attrsID uint32) (bool, error) {
	qr := dc.pool.Get().(*query)
	qr.ctx = ctx
	if ctx != nil {
		qr.bud = budget.From(ctx)
	}
	res, _ := qr.impliesT(q, t, attrs, attrsID)
	err := qr.err
	// Refutations still pending here belong to components an abort cut
	// short; they are dropped with the rest of the per-query state.
	clear(qr.local)
	qr.stack = qr.stack[:0]
	qr.visits = 0
	qr.ctx, qr.bud, qr.err, qr.steps = nil, nil, nil, 0
	dc.pool.Put(qr)
	if err != nil {
		return false, err
	}
	return res, nil
}

// MemoSize reports the approximate number of published memo entries.
func (dc *Decider) MemoSize() int { return int(dc.memoCount.Load()) }

// Interner exposes the decider's path universe (shared, concurrency-safe).
func (dc *Decider) Interner() *xpath.Interner { return dc.in }

// ExistsAll reports whether all attrs are guaranteed on nodes of p.
func (dc *Decider) ExistsAll(p xpath.Path, attrs []string) bool {
	return dc.ExistsAllID(dc.in.Intern(p), attrs)
}

// ExistsAllID is ExistsAll over an ID interned in Interner(). It
// implements the paper's exist() closure against the compiled kernel: @a
// is guaranteed on p-nodes if some σ ∈ Σ carries @a and p ⊆ Qσ/Q'σ.
func (dc *Decider) ExistsAllID(pid xpath.ID, attrs []string) bool {
	attrs = normalizeAttrsIfNeeded(attrs)
	return dc.existsAllSorted(pid, attrs)
}

// existsAllSorted requires attrs sorted, deduplicated and without '@'.
// Coverage is tracked in a bitmask over attrs positions; the containment
// kernel is consulted lazily, only for σs that could still discharge an
// uncovered attribute.
func (dc *Decider) existsAllSorted(pid xpath.ID, attrs []string) bool {
	n := len(attrs)
	if n == 0 {
		return true
	}
	if n > 64 {
		return dc.existsAllBig(pid, attrs)
	}
	var covered uint64
	got := 0
	for i := range dc.sigs {
		sc := &dc.sigs[i]
		if len(sc.attrs) == 0 || !anyUncovered(sc.attrs, attrs, covered) {
			continue
		}
		if !dc.in.ContainedIn(pid, sc.rootTgt) {
			continue
		}
		for _, a := range sc.attrs {
			if idx, ok := indexSorted(attrs, a); ok && covered&(1<<uint(idx)) == 0 {
				covered |= 1 << uint(idx)
				got++
				if got == n {
					return true
				}
			}
		}
	}
	return false
}

// indexSorted finds a in the sorted list attrs (linear scan; the lists are
// tiny in practice).
func indexSorted(attrs []string, a string) (int, bool) {
	for i, x := range attrs {
		if x == a {
			return i, true
		}
		if x > a {
			return 0, false
		}
	}
	return 0, false
}

// anyUncovered reports whether σ's attribute list carries some wanted
// attribute whose coverage bit is still clear.
func anyUncovered(sigAttrs, attrs []string, covered uint64) bool {
	for _, a := range sigAttrs {
		if idx, ok := indexSorted(attrs, a); ok && covered&(1<<uint(idx)) == 0 {
			return true
		}
	}
	return false
}

// existsAllBig is the map-based fallback for absurdly wide attribute sets.
func (dc *Decider) existsAllBig(pid xpath.ID, attrs []string) bool {
	remaining := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		remaining[a] = true
	}
	for i := range dc.sigs {
		sc := &dc.sigs[i]
		if len(sc.attrs) == 0 {
			continue
		}
		if dc.in.ContainedIn(pid, sc.rootTgt) {
			for _, a := range sc.attrs {
				delete(remaining, a)
			}
			if len(remaining) == 0 {
				return true
			}
		}
	}
	return false
}

// Sigma returns the key set the decider reasons over.
func (dc *Decider) Sigma() []Key { return dc.sigma }

func (dc *Decider) shardFor(g goal) *memoShard {
	h := uint32(g.ctx)*2654435761 ^ uint32(g.tgt)*2246822519 ^ g.attrs*3266489917
	return &dc.shards[h%memoShards]
}

// query is the state of one top-level implication query: the search of
// Tarjan's strongly connected components algorithm run over sub-goals.
// Every goal the query expands gets a visit index; local maps each goal
// that is in progress (on the current proof path) or refuted but not yet
// published to that index, and stack holds the same goals in visit order.
// Reading such a goal counts as refuted and records the reader's
// assumption as the goal's index, so a refutation knows the lowest index
// it assumed (its low). A refutation whose low is at least its own index
// closes its component: every goal it assumed refuted was visited after
// it and is refuted too, so the goal and everything pending above it on
// the stack are published (see impliesT).
type query struct {
	d       *Decider
	local   map[goal]int32
	stack   []goal
	visits  int32    // the last visit index handed out; indices start at 1
	scratch []string // reused by the sorted attribute difference

	// Abort plumbing (nil/zero for legacy unbudgeted queries): ctx and bud
	// are checked every abortCheckStride goal expansions; the first
	// failure latches into err and every further impliesT call returns
	// immediately as a refutation with low abortLow, so nothing the abort
	// cut short can close a component and reach the shared memo.
	ctx   context.Context
	bud   *budget.Budget
	steps int
	err   error
}

// abortCheckStride is how many goal expansions a budgeted query runs
// between cancellation/budget checks. Goals are small units of work
// (a handful of map and kernel operations), so a stride of 32 keeps the
// abort latency bounded by a few microseconds while keeping ctx.Err()
// off the per-goal path.
const abortCheckStride = 32

// aborted reports (and latches) whether the query must stop. Called at
// every goal entry; the expensive checks run every abortCheckStride calls.
func (qr *query) aborted() bool {
	if qr.err != nil {
		return true
	}
	if qr.ctx == nil {
		return false
	}
	qr.steps++
	if qr.steps%abortCheckStride != 0 {
		return false
	}
	if err := qr.ctx.Err(); err != nil {
		qr.err = err
		return true
	}
	if b := qr.bud; b != nil {
		d := qr.d
		if b.MaxMemoEntries > 0 && d.memoCount.Load() >= int64(b.MaxMemoEntries) {
			qr.err = budget.Exceeded("key implication", budget.MemoEntries, b.MaxMemoEntries)
			return true
		}
		if b.MaxInternEntries > 0 && d.in.Size() >= b.MaxInternEntries {
			qr.err = budget.Exceeded("key implication", budget.InternEntries, b.MaxInternEntries)
			return true
		}
	}
	return false
}

const (
	// settled is the low of a verdict that assumed nothing: a proof, a
	// published memo entry, or a refutation whose component has closed.
	settled int32 = math.MaxInt32
	// abortLow is the low of an aborted goal: below every visit index, so
	// no refutation that depends on the abort ever closes.
	abortLow int32 = 0
)

// impliesT decides the goal and also returns its low: settled when the
// verdict is definitive, otherwise the lowest visit index of a goal the
// refutation assumed refuted (see query). Positive results are always
// settled: a proof uses only genuine sub-proofs.
//
// Invariants: q and t are normalized (top-level queries normalize once;
// Concat and Split preserve normalization), attrs is normalized and
// attrsID is its interned ID (0 for the empty list).
func (qr *query) impliesT(q, t xpath.Path, attrs []string, attrsID uint32) (bool, int32) {
	// attribute-step reduction: a trailing attribute step is unique per
	// parent node, so (Q, (P/@a, ∅)) follows from (Q, (P, ∅)); key-path
	// sets on attribute-final targets only make sense empty.
	if t.HasAttribute() {
		if len(attrs) != 0 {
			return false, settled
		}
		t = t.StripAttribute()
	}
	if q.HasAttribute() {
		return false, settled
	}
	// Cancellation / budget exhaustion reads as a refutation that assumed
	// everything: it is never cached, and the latched error surfaces from
	// the top-level entry point.
	if qr.aborted() {
		return false, abortLow
	}

	d := qr.d
	g := goal{ctx: d.in.Intern(q), tgt: d.in.Intern(t), attrs: attrsID}
	if idx, ok := qr.local[g]; ok {
		// In progress (a cycle: the goal cannot support itself) or refuted
		// in a component that has not closed yet: refuted here, assuming
		// idx's component closes refuted.
		return false, idx
	}
	shard := d.shardFor(g)
	if res, ok := shard.get(g); ok {
		return res, settled
	}
	qr.visits++
	idx := qr.visits
	qr.local[g] = idx
	base := len(qr.stack)
	qr.stack = append(qr.stack, g)
	res, low := qr.prove(q, t, g, attrs, attrsID)
	switch {
	case res:
		// Publish the proof. The refutations pending above it may have
		// assumed it refuted, so they are discarded unpublished.
		shard.put(g, true)
		d.memoCount.Add(1)
		qr.pop(base, false)
		return true, settled
	case low >= idx:
		// The component closes: g and every refutation pending above it
		// assumed only each other, so all of them are refuted.
		qr.pop(base, true)
		return false, settled
	default:
		return false, low
	}
}

// pop removes stack[base:] from the query's local state, publishing them
// as refutations when publish is set.
func (qr *query) pop(base int, publish bool) {
	d := qr.d
	for _, g := range qr.stack[base:] {
		delete(qr.local, g)
		if publish {
			d.shardFor(g).put(g, false)
			d.memoCount.Add(1)
		}
	}
	qr.stack = qr.stack[:base]
}

func (qr *query) prove(q, t xpath.Path, g goal, attrs []string, attrsID uint32) (bool, int32) {
	d := qr.d
	// epsilon rule.
	if t.IsEpsilon() && len(attrs) == 0 {
		return true, settled
	}
	low := settled

	// Q/Q' interned at the ID level (no Path concatenation needed); only
	// goals with attributes consult it.
	var qtID xpath.ID
	if len(attrs) > 0 {
		qtID = d.in.ConcatIDs(g.ctx, g.tgt)
	}

	// unique-target weakening: if the target is unique per context, only
	// the existence of attrs remains to be discharged.
	if len(attrs) > 0 && d.existsAllSorted(qtID, attrs) {
		res, l := qr.impliesT(q, t, nil, 0)
		if res {
			return true, settled
		}
		low = min(low, l)
	}

	// direct rule, over the per-σ precompiled split decompositions.
	for i := range d.sigs {
		sc := &d.sigs[i]
		if !subsetSorted(sc.attrs, attrs) {
			continue
		}
		extra := diffSorted(attrs, sc.attrs, qr.scratch[:0])
		qr.scratch = extra[:0]
		if len(extra) > 0 && !d.existsAllSorted(qtID, extra) {
			continue
		}
		if d.coversDirect(sc, g.ctx, g.tgt) {
			return true, settled
		}
	}

	// unique-prefix composition: split t ≡ t1/t2 with non-empty t1 unique
	// under q and the remainder keyed under q/t1. splits only yields
	// decompositions whose suffix is strictly shorter than t, so the
	// recursion terminates. The split t1 = t asks the goal itself when
	// attrs is empty: that is the cycle every refuted uniqueness goal cuts.
	for _, sp := range splits(t) {
		t1, t2 := sp.prefix, sp.suffix
		ok1, l1 := qr.impliesT(q, t1, nil, 0)
		low = min(low, l1)
		if !ok1 {
			continue
		}
		ok2, l2 := qr.impliesT(q.Concat(t1), t2, attrs, attrsID)
		low = min(low, l2)
		if ok2 {
			return true, settled
		}
	}
	return false, low
}

// coversDirect reports whether σ implies the (Q, Q') pair by the
// target-to-context rule plus containment weakenings: for some split
// Q'σ ≡ P1/P2, Q ⊆ Qσ/P1 and Q' ⊆ P2. Both containments are integer-keyed
// kernel queries over precompiled decompositions.
func (d *Decider) coversDirect(sc *sigCompiled, qid, tid xpath.ID) bool {
	for _, sp := range sc.splits {
		if d.in.ContainedIn(qid, sp.ctxPre) && d.in.ContainedIn(tid, sp.suf) {
			return true
		}
	}
	return false
}

type split struct {
	prefix, suffix xpath.Path
	dup            bool // split duplicated a // step onto both sides
}

// splitsAll enumerates the concatenation decompositions of p, including the
// ones that duplicate a "//" step onto both sides (since // ≡ ////).
func splitsAll(p xpath.Path) []split {
	n := p.Len()
	out := make([]split, 0, 2*n+2)
	for i := 0; i <= n; i++ {
		pre, suf := p.Split(i)
		out = append(out, split{pre, suf, false})
		if i < n && p.Step(i).Kind == xpath.DescendantOrSelf {
			pre2, _ := p.Split(i + 1)
			out = append(out, split{pre2, suf, true})
		}
	}
	return out
}

// splits enumerates decompositions useful for the unique-prefix rule:
// proper prefixes only (i >= 1), with //-duplication variants whose suffix
// is strictly shorter than p (to guarantee termination of the recursion).
func splits(p xpath.Path) []split {
	n := p.Len()
	var out []split
	for i := 1; i <= n; i++ {
		pre, suf := p.Split(i)
		out = append(out, split{pre, suf, false})
		if i < n && p.Step(i).Kind == xpath.DescendantOrSelf {
			pre2, _ := p.Split(i + 1)
			out = append(out, split{pre2, suf, true})
		}
	}
	return out
}

// normalizeAttrsIfNeeded returns attrs when it is already normalized
// (sorted, duplicate-free, '@'-less) — the common case for attribute lists
// that came out of Key values or sorted rule lookups — and a normalized
// copy otherwise. The zero-copy fast path keeps the per-query cost flat.
func normalizeAttrsIfNeeded(attrs []string) []string {
	for i, a := range attrs {
		if strings.HasPrefix(a, "@") || a == "" || (i > 0 && attrs[i-1] >= a) {
			return normalizeAttrs(attrs)
		}
	}
	return attrs
}

// subsetSorted reports whether sub ⊆ super; both sorted and duplicate-free.
func subsetSorted(sub, super []string) bool {
	j := 0
	for _, a := range sub {
		for j < len(super) && super[j] < a {
			j++
		}
		if j >= len(super) || super[j] != a {
			return false
		}
		j++
	}
	return true
}

// diffSorted appends a ∖ b to out and returns it; a and b sorted and
// duplicate-free, and so is the result — no map, no re-sort.
func diffSorted(a, b []string, out []string) []string {
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			j++
			continue
		}
		out = append(out, x)
	}
	return out
}
