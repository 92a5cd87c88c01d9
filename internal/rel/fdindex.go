package rel

// This file implements the indexed attribute-closure engine: the classic
// counter-based linear-time closure (Beeri & Bernstein 1979, LINCLOSURE)
// behind a compiled per-FD-list index, plus an optional bounded closure-set
// cache. The textbook fixpoint Closure (fd.go) is retained as the oracle —
// the differential harness (internal/diffcheck, lane "closure") and
// FuzzLinClosure cross-check the two bit-for-bit.
//
// Index layout. One FDIndex is compiled per FD list and is immutable after
// construction, so any number of goroutines may query it concurrently:
//
//   - deps        the FD list, 1:1 with the input order (trimmed sets).
//     The index does not split or group the list it is given;
//     Minimize groups its FDs by LHS before compiling (fd.go).
//   - postStart/  CSR posting lists: for attribute a, the dep indices whose
//     postFD      LHS contains a are postFD[postStart[a]:postStart[a+1]].
//   - baseCount   |LHS| per dep — the initial unsatisfied-attribute count.
//   - zeroLHS     deps with empty LHS; they fire unconditionally.
//
// A query copies baseCount into pooled scratch counters, seeds a worklist
// with the start set, and pops attributes: each pop decrements the counter
// of every posting-list dep, and a counter reaching zero fires the dep's
// RHS into the accumulator, pushing newly gained attributes. Every
// attribute is pushed at most once and every dep fires at most once, so a
// query is O(|F| + Σ|LHS| + attrs) — one indexed pass instead of the
// fixpoint's rescans. All scratch (counters, worklist, accumulator words,
// cache key buffer) lives in a sync.Pool, so steady-state queries are
// zero-alloc.
//
// Live rows. An implication query may fire each dep with a caller-owned
// RHS instead of its indexed one: live holds nWords words per dep (see
// liveRows), and a dep fires its row. Clearing attribute A in dep d's row
// takes the single FD "LHS(d) → A" out of the closure without touching
// counters or posting lists, which is how Minimize's redundancy pass asks
// "do the others imply X → A" of an index with one dep per distinct X.
// Zeroing a whole row takes dep d out (IsNonRedundant).
//
// Cache soundness. The optional cache maps start-set keys to published,
// immutable closure AttrSets. Closure results are pure functions of the
// (immutable) index and the start set, so a cached entry can never be
// wrong; the abort rule (ClosureCtx never publishes after ctx trips)
// exists so that a budget-exhausted request cannot grow shared state —
// the same discipline as the implication decider's memo. Live-row
// queries (impliesLive) bypass the cache entirely: the cache key is the
// start set alone, which is only valid for full-index closures.

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Package-wide counters for /debug/vars: index compilations and closure
// cache traffic across every FDIndex in the process.
var (
	fdIndexCompiles       atomic.Uint64
	closureCacheHits      atomic.Uint64
	closureCacheMisses    atomic.Uint64
	closureCacheEvictions atomic.Uint64
)

// FDIndexCompiles reports how many FDIndexes the process has compiled.
func FDIndexCompiles() uint64 { return fdIndexCompiles.Load() }

// ClosureCacheCounters reports process-wide closure-cache traffic:
// hits, misses and evictions across all FDIndex caches.
func ClosureCacheCounters() (hits, misses, evictions uint64) {
	return closureCacheHits.Load(), closureCacheMisses.Load(), closureCacheEvictions.Load()
}

// DefaultClosureEntries is the closure-cache cap EnableCache applies when
// the caller does not supply one (budget.MaxClosureEntries == 0).
const DefaultClosureEntries = 4096

// FDIndex is a compiled attribute→dependency index over one FD list,
// answering closure and implication queries with the counter-based
// linear-time algorithm. Immutable after construction (the cache is
// internally synchronized), so one index serves any number of goroutines.
type FDIndex struct {
	deps   []FD // input FDs, 1:1, trimmed
	nWords int  // accumulator width covering every LHS and RHS
	nAttrs int  // nWords * 64

	postStart []int32
	postFD    []int32
	baseCount []int32
	zeroLHS   []int32

	pool sync.Pool // *fdScratch

	cacheMu    sync.RWMutex
	cache      map[string]AttrSet // nil until EnableCache
	cacheLimit int
}

// fdScratch is the reusable per-query state.
type fdScratch struct {
	counters []int32
	work     []int32
	acc      []uint64
	keyBuf   []byte
}

// NewFDIndex compiles an index over the FD list. The list is copied
// (trimmed); later mutation of the caller's slice does not affect the index.
func NewFDIndex(fds []FD) *FDIndex {
	ix := &FDIndex{deps: make([]FD, len(fds))}
	for i, f := range fds {
		f.Lhs, f.Rhs = f.Lhs.trim(), f.Rhs.trim()
		ix.deps[i] = f
		if n := len(f.Lhs.words); n > ix.nWords {
			ix.nWords = n
		}
		if n := len(f.Rhs.words); n > ix.nWords {
			ix.nWords = n
		}
	}
	ix.nAttrs = ix.nWords * 64
	counts := make([]int32, ix.nAttrs+1)
	ix.baseCount = make([]int32, len(ix.deps))
	total := 0
	for d, f := range ix.deps {
		c := int32(0)
		f.Lhs.ForEach(func(a int) {
			counts[a]++
			c++
		})
		ix.baseCount[d] = c
		total += int(c)
		if c == 0 {
			ix.zeroLHS = append(ix.zeroLHS, int32(d))
		}
	}
	ix.postStart = make([]int32, ix.nAttrs+1)
	var sum int32
	for a := 0; a < ix.nAttrs; a++ {
		ix.postStart[a] = sum
		sum += counts[a]
		counts[a] = ix.postStart[a] // reuse as fill cursor
	}
	ix.postStart[ix.nAttrs] = sum
	ix.postFD = make([]int32, total)
	for d, f := range ix.deps {
		f.Lhs.ForEach(func(a int) {
			ix.postFD[counts[a]] = int32(d)
			counts[a]++
		})
	}
	ix.pool.New = func() any { return &fdScratch{} }
	fdIndexCompiles.Add(1)
	return ix
}

// Len reports the number of FDs in the index.
func (ix *FDIndex) Len() int { return len(ix.deps) }

// FDs returns the indexed FD list (trimmed copies, input order). Callers
// must not mutate it.
func (ix *FDIndex) FDs() []FD { return ix.deps }

// EnableCache turns on the bounded closure-set cache. limit <= 0 applies
// DefaultClosureEntries. Not safe to call concurrently with queries —
// enable the cache right after construction.
func (ix *FDIndex) EnableCache(limit int) {
	if limit <= 0 {
		limit = DefaultClosureEntries
	}
	ix.cacheLimit = limit
	ix.cache = make(map[string]AttrSet)
}

// CacheLen reports the number of resident closure-cache entries.
func (ix *FDIndex) CacheLen() int {
	if ix.cache == nil {
		return 0
	}
	ix.cacheMu.RLock()
	defer ix.cacheMu.RUnlock()
	return len(ix.cache)
}

func (ix *FDIndex) getScratch() *fdScratch  { return ix.pool.Get().(*fdScratch) }
func (ix *FDIndex) putScratch(s *fdScratch) { ix.pool.Put(s) }

// run grows s.acc from start set x to its closure. With a non-nil goal it
// returns early (true) the moment goal ⊆ acc; with a nil goal it runs to
// the fixpoint and returns true. live, when non-nil, holds the RHS each
// dep fires (nWords words per dep, see liveRows); nil fires the indexed
// RHSs.
func (ix *FDIndex) run(s *fdScratch, x AttrSet, live []uint64, goal []uint64) bool {
	n := ix.nWords
	if len(x.words) > n {
		n = len(x.words)
	}
	if cap(s.acc) < n {
		s.acc = make([]uint64, n)
	}
	s.acc = s.acc[:n]
	for i := range s.acc {
		s.acc[i] = 0
	}
	copy(s.acc, x.words)
	if goal != nil && subsetWords(goal, s.acc) {
		return true
	}
	if cap(s.counters) < len(ix.deps) {
		s.counters = make([]int32, len(ix.deps))
	}
	s.counters = s.counters[:len(ix.deps)]
	copy(s.counters, ix.baseCount)
	s.work = s.work[:0]
	// Seed the worklist with the indexed portion of the start set; bits at
	// or beyond nAttrs have no postings and just ride along in acc.
	seedWords := len(x.words)
	if seedWords > ix.nWords {
		seedWords = ix.nWords
	}
	for wi := 0; wi < seedWords; wi++ {
		w := x.words[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			s.work = append(s.work, int32(wi*64+b))
			w &^= 1 << uint(b)
		}
	}
	for _, d := range ix.zeroLHS {
		if ix.fire(s, ix.rhs(d, live)) && goal != nil && subsetWords(goal, s.acc) {
			return true
		}
	}
	for len(s.work) > 0 {
		a := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		for _, d := range ix.postFD[ix.postStart[a]:ix.postStart[a+1]] {
			s.counters[d]--
			if s.counters[d] == 0 {
				if ix.fire(s, ix.rhs(d, live)) && goal != nil && subsetWords(goal, s.acc) {
					return true
				}
			}
		}
	}
	return goal == nil || subsetWords(goal, s.acc)
}

// rhs returns the words dep d fires: its row of live, or its indexed RHS
// when live is nil.
func (ix *FDIndex) rhs(d int32, live []uint64) []uint64 {
	if live == nil {
		return ix.deps[d].Rhs.words
	}
	return live[int(d)*ix.nWords : (int(d)+1)*ix.nWords]
}

// liveRows returns a fresh copy of every dep's RHS, nWords words per dep,
// for impliesLive: dep d's row is rows[d*nWords:(d+1)*nWords].
func (ix *FDIndex) liveRows() []uint64 {
	rows := make([]uint64, len(ix.deps)*ix.nWords)
	for d, f := range ix.deps {
		copy(rows[d*ix.nWords:], f.Rhs.words)
	}
	return rows
}

// fire ORs the RHS words rhs into the accumulator, pushing newly gained
// attributes onto the worklist; reports whether anything was gained.
func (ix *FDIndex) fire(s *fdScratch, rhs []uint64) bool {
	gained := false
	for wi, w := range rhs {
		nw := w &^ s.acc[wi]
		if nw == 0 {
			continue
		}
		s.acc[wi] |= nw
		gained = true
		for nw != 0 {
			b := bits.TrailingZeros64(nw)
			s.work = append(s.work, int32(wi*64+b))
			nw &^= 1 << uint(b)
		}
	}
	return gained
}

// Closure computes the attribute closure x⁺ under the indexed FDs. With the
// cache enabled, a warm query returns the published immutable set without
// allocating.
func (ix *FDIndex) Closure(x AttrSet) AttrSet {
	out, _ := ix.closure(nil, x)
	return out
}

// ClosureCtx is Closure under a context: it returns ctx.Err() instead of a
// result when the context is already done, and a result computed after the
// context trips is returned but never published to the cache — an aborted
// request cannot grow shared state.
func (ix *FDIndex) ClosureCtx(ctx context.Context, x AttrSet) (AttrSet, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return AttrSet{}, err
		}
	}
	return ix.closure(ctx, x)
}

func (ix *FDIndex) closure(ctx context.Context, x AttrSet) (AttrSet, error) {
	s := ix.getScratch()
	if ix.cache != nil {
		s.keyBuf = x.AppendKey(s.keyBuf[:0])
		ix.cacheMu.RLock()
		v, ok := ix.cache[string(s.keyBuf)]
		ix.cacheMu.RUnlock()
		if ok {
			closureCacheHits.Add(1)
			ix.putScratch(s)
			return v, nil
		}
		closureCacheMisses.Add(1)
	}
	ix.run(s, x, nil, nil)
	words := make([]uint64, len(s.acc))
	copy(words, s.acc)
	out := AttrSet{words: words}.trim()
	if ix.cache != nil && (ctx == nil || ctx.Err() == nil) {
		ix.publish(string(s.keyBuf), out)
	}
	ix.putScratch(s)
	return out, nil
}

// publish inserts a computed closure, evicting an arbitrary entry when the
// cache is full (closures are equally cheap to recompute, so no LRU walk).
func (ix *FDIndex) publish(key string, v AttrSet) {
	ix.cacheMu.Lock()
	if _, dup := ix.cache[key]; !dup {
		if len(ix.cache) >= ix.cacheLimit {
			for k := range ix.cache {
				delete(ix.cache, k)
				closureCacheEvictions.Add(1)
				break
			}
		}
		ix.cache[key] = v
	}
	ix.cacheMu.Unlock()
}

// Implies reports whether the indexed FDs imply f (f.Rhs ⊆ f.Lhs⁺),
// stopping the closure as soon as the goal is reached. Always zero-alloc in
// steady state; does not consult or populate the cache.
func (ix *FDIndex) Implies(f FD) bool {
	return ix.impliesLive(f, nil)
}

// ImpliesAll reports whether the indexed FDs imply every FD in gs.
func (ix *FDIndex) ImpliesAll(gs []FD) bool {
	for _, g := range gs {
		if !ix.Implies(g) {
			return false
		}
	}
	return true
}

// impliesLive is Implies with each dep firing its row of live (see
// liveRows) — the "do the others imply X → A" query of Minimize and
// IsNonRedundant, asked with A cleared from X's row. It bypasses the
// cache: cached closures are keyed by start set alone, which is only valid
// against the full index.
func (ix *FDIndex) impliesLive(f FD, live []uint64) bool {
	goal := f.Rhs.trim()
	if len(goal.words) == 0 {
		return true
	}
	s := ix.getScratch()
	ok := ix.run(s, f.Lhs, live, goal.words)
	ix.putScratch(s)
	return ok
}

// CandidateKey returns one minimal key of the sub-schema attrs: greedy
// attribute removal, each superkey test a single indexed pass.
func (ix *FDIndex) CandidateKey(attrs AttrSet) AttrSet {
	key := attrs
	for _, i := range attrs.Positions() {
		reduced := key.Without(i)
		if ix.Implies(FD{Lhs: reduced, Rhs: attrs}) {
			key = reduced
		}
	}
	return key
}

// trace runs the closure of x recording every firing, for Derivation: the
// counter algorithm fires a dep only once all its LHS attributes are in the
// accumulator, so the step sequence is a valid forward proof.
func (ix *FDIndex) trace(x AttrSet) ([]DerivationStep, AttrSet) {
	s := ix.getScratch()
	defer ix.putScratch(s)
	var steps []DerivationStep
	closure := x
	record := func(d int32) {
		gained := ix.deps[d].Rhs.Minus(closure)
		if gained.IsEmpty() {
			return
		}
		closure = closure.Union(ix.deps[d].Rhs)
		steps = append(steps, DerivationStep{Used: ix.deps[d], Gained: gained})
	}
	n := ix.nWords
	if len(x.words) > n {
		n = len(x.words)
	}
	if cap(s.acc) < n {
		s.acc = make([]uint64, n)
	}
	s.acc = s.acc[:n]
	for i := range s.acc {
		s.acc[i] = 0
	}
	copy(s.acc, x.words)
	if cap(s.counters) < len(ix.deps) {
		s.counters = make([]int32, len(ix.deps))
	}
	s.counters = s.counters[:len(ix.deps)]
	copy(s.counters, ix.baseCount)
	s.work = s.work[:0]
	seedWords := len(x.words)
	if seedWords > ix.nWords {
		seedWords = ix.nWords
	}
	for wi := 0; wi < seedWords; wi++ {
		w := x.words[wi]
		for w != 0 {
			b := bits.TrailingZeros64(w)
			s.work = append(s.work, int32(wi*64+b))
			w &^= 1 << uint(b)
		}
	}
	for _, d := range ix.zeroLHS {
		record(d)
		ix.fire(s, ix.deps[d].Rhs.words)
	}
	for len(s.work) > 0 {
		a := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		for _, d := range ix.postFD[ix.postStart[a]:ix.postStart[a+1]] {
			s.counters[d]--
			if s.counters[d] == 0 {
				record(d)
				ix.fire(s, ix.deps[d].Rhs.words)
			}
		}
	}
	return steps, closure
}
