package xpath

// This file implements the interned path universe and the compiled decision
// kernel. Every algorithm in the reproduction — implication, propagation,
// minimumCover, streaming validation — bottoms out in containment /
// intersection / membership queries over the fragment P ::= ε | l | P/P | //,
// and issues the same queries over and over for a small universe of paths.
// The Interner hash-conses normalized paths into dense integer IDs so that:
//
//   - path identity is an integer compare, not a string compare;
//   - labels compare as uint32 codes, never as strings, inside the kernels;
//   - decision verdicts are cached per (idP, idQ) pair behind sharded
//     read/write locks, so a warm query costs one map read;
//   - the DP tables behind cold queries are two rolling rows drawn from a
//     stack buffer (or a sync.Pool for very long paths) instead of a fresh
//     O(|P|·|Q|) allocation per call.
//
// Caching verdicts in a shared table is sound because containment,
// intersection and membership are pure functions of the two path languages:
// unlike a refutation of the implication decider that cut a cycle (which
// holds only once its search has closed the cycle's component), a kernel
// verdict is query-order-independent, so concurrent writers can only agree.
//
// The recursive DPs in contain.go are kept unchanged as the reference
// oracle; the property and fuzz tests cross-check the kernels against them
// on randomized path pairs.

import (
	"sync"
)

// ID is a dense identifier for an interned (normalized) path. IDs are only
// meaningful relative to the Interner that produced them.
type ID uint32

// DescCode is the compiled step code of the "//" step. Label steps are
// assigned codes >= 1 in interning order.
const DescCode uint32 = 0

// noLabel is the code used for document labels the interner has never seen:
// it matches no label step (only "//" can absorb it).
const noLabel uint32 = ^uint32(0)

// verdictShards spreads the pairwise verdict cache over independently
// locked maps so parallel deciders do not serialize on one mutex.
const verdictShards = 16

type verdictShard struct {
	mu sync.RWMutex
	m  map[uint64]bool
}

func (s *verdictShard) get(k uint64) (res, ok bool) {
	s.mu.RLock()
	res, ok = s.m[k]
	s.mu.RUnlock()
	return res, ok
}

func (s *verdictShard) put(k uint64, res bool) {
	s.mu.Lock()
	s.m[k] = res
	s.mu.Unlock()
}

// Interner canonicalizes normalized paths to dense IDs and answers
// containment / intersection / membership queries over them through
// iterative, allocation-free kernels with a concurrency-safe verdict cache.
//
// An Interner is safe for concurrent use. The zero value is not ready;
// use NewInterner.
type Interner struct {
	mu      sync.RWMutex
	labels  map[string]uint32 // label name -> code (>= 1)
	names   []string          // code-1 -> label name
	buckets map[uint64][]ID   // hash of compiled codes -> candidate IDs
	comp    [][]uint32        // ID -> compiled codes (slices into arena)
	steps   [][]Step          // ID -> normalized steps (immutable)
	arena   []uint32          // shared backing array for comp slices

	contain [verdictShards]verdictShard // (p<<32|q) -> L(p) ⊆ L(q)
	sect    [verdictShards]verdictShard // (p<<32|q) -> L(p) ∩ L(q) ≠ ∅

	tables sync.Pool // *[]uint8 scratch rows for very long paths
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	in := &Interner{
		labels:  make(map[string]uint32),
		buckets: make(map[uint64][]ID),
	}
	for i := range in.contain {
		in.contain[i].m = make(map[uint64]bool)
		in.sect[i].m = make(map[uint64]bool)
	}
	in.tables.New = func() any {
		s := make([]uint8, 256)
		return &s
	}
	return in
}

// hashCodes is FNV-1a over the compiled code sequence.
func hashCodes(codes []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range codes {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func codesEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookupLocked finds an existing ID for codes; the caller holds mu (either
// mode).
func (in *Interner) lookupLocked(h uint64, codes []uint32) (ID, bool) {
	for _, id := range in.buckets[h] {
		if codesEqual(in.comp[id], codes) {
			return id, true
		}
	}
	return 0, false
}

// Intern canonicalizes p (up to normalization, i.e. merging of adjacent //
// steps) and returns its dense ID. Interning an already-seen path takes one
// read-locked hash lookup and allocates nothing for paths up to 32 steps.
func (in *Interner) Intern(p Path) ID {
	var buf [32]uint32
	codes := buf[:0]
	known := true
	in.mu.RLock()
	for _, s := range p.steps {
		if s.Kind == DescendantOrSelf {
			if n := len(codes); n > 0 && codes[n-1] == DescCode {
				continue
			}
			codes = append(codes, DescCode)
			continue
		}
		c, ok := in.labels[s.Name]
		if !ok {
			known = false
			break
		}
		codes = append(codes, c)
	}
	if known {
		if id, ok := in.lookupLocked(hashCodes(codes), codes); ok {
			in.mu.RUnlock()
			return id
		}
	}
	in.mu.RUnlock()
	return in.internSlow(p)
}

// internSlow assigns label codes and a fresh ID under the write lock.
func (in *Interner) internSlow(p Path) ID {
	norm := p.Normalize()
	in.mu.Lock()
	defer in.mu.Unlock()
	codes := make([]uint32, 0, len(norm.steps))
	for _, s := range norm.steps {
		if s.Kind == DescendantOrSelf {
			codes = append(codes, DescCode)
			continue
		}
		codes = append(codes, in.internLabelLocked(s.Name))
	}
	if id, ok := in.lookupLocked(hashCodes(codes), codes); ok {
		return id
	}
	return in.newEntryLocked(codes, norm.steps)
}

// newEntryLocked appends a new interned path; the caller holds the write
// lock. codes and steps are copied into interner-owned storage (the shared
// arena for codes), so callers may pass scratch slices.
func (in *Interner) newEntryLocked(codes []uint32, steps []Step) ID {
	base := len(in.arena)
	in.arena = append(in.arena, codes...)
	stored := in.arena[base : base+len(codes) : base+len(codes)]
	cp := make([]Step, len(steps))
	copy(cp, steps)
	id := ID(len(in.comp))
	in.comp = append(in.comp, stored)
	in.steps = append(in.steps, cp)
	h := hashCodes(stored)
	in.buckets[h] = append(in.buckets[h], id)
	return id
}

func (in *Interner) internLabelLocked(name string) uint32 {
	if c, ok := in.labels[name]; ok {
		return c
	}
	in.names = append(in.names, name)
	c := uint32(len(in.names)) // codes start at 1; 0 is DescCode
	in.labels[name] = c
	return c
}

// InternLabel assigns (or retrieves) the code of a label name.
func (in *Interner) InternLabel(name string) uint32 {
	in.mu.RLock()
	c, ok := in.labels[name]
	in.mu.RUnlock()
	if ok {
		return c
	}
	in.mu.Lock()
	c = in.internLabelLocked(name)
	in.mu.Unlock()
	return c
}

// LabelCode retrieves the code of a label name without assigning one;
// ok is false for labels the interner has never seen.
func (in *Interner) LabelCode(name string) (uint32, bool) {
	in.mu.RLock()
	c, ok := in.labels[name]
	in.mu.RUnlock()
	return c, ok
}

// Codes returns the compiled (normalized) step codes of an interned path:
// DescCode for "//", label codes >= 1 otherwise. The returned slice is
// interner-owned and must not be modified.
func (in *Interner) Codes(id ID) []uint32 {
	in.mu.RLock()
	c := in.comp[id]
	in.mu.RUnlock()
	return c
}

// PathOf returns the canonical (normalized) Path of an interned ID.
func (in *Interner) PathOf(id ID) Path {
	in.mu.RLock()
	s := in.steps[id]
	in.mu.RUnlock()
	return Path{steps: s}
}

// Size reports the number of distinct interned paths.
func (in *Interner) Size() int {
	in.mu.RLock()
	n := len(in.comp)
	in.mu.RUnlock()
	return n
}

// ConcatIDs interns the concatenation of two interned paths without going
// through Path values or label lookups: the compiled codes are merged
// directly (collapsing a // boundary). The first path must not be
// attribute-final unless the second is ε, mirroring Path.Concat.
func (in *Interner) ConcatIDs(a, b ID) ID {
	var buf [32]uint32
	in.mu.RLock()
	ca, cb := in.comp[a], in.comp[b]
	if len(cb) == 0 {
		in.mu.RUnlock()
		return a
	}
	if len(ca) == 0 {
		in.mu.RUnlock()
		return b
	}
	codes := buf[:0]
	codes = append(codes, ca...)
	for _, c := range cb {
		if c == DescCode && codes[len(codes)-1] == DescCode {
			continue
		}
		codes = append(codes, c)
	}
	if id, ok := in.lookupLocked(hashCodes(codes), codes); ok {
		in.mu.RUnlock()
		return id
	}
	// Slow path: build the concatenated steps and insert under the write
	// lock (re-checking, since another goroutine may have inserted).
	sa, sb := in.steps[a], in.steps[b]
	in.mu.RUnlock()

	steps := make([]Step, 0, len(sa)+len(sb))
	steps = append(steps, sa...)
	for _, s := range sb {
		if s.Kind == DescendantOrSelf && len(steps) > 0 && steps[len(steps)-1].Kind == DescendantOrSelf {
			continue
		}
		steps = append(steps, s)
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	cp := make([]uint32, len(codes))
	copy(cp, codes)
	if id, ok := in.lookupLocked(hashCodes(cp), cp); ok {
		return id
	}
	return in.newEntryLocked(cp, steps)
}

// Epsilon returns the ID of the empty path ε.
func (in *Interner) Epsilon() ID { return in.Intern(Epsilon) }

// IsEpsilon reports whether id denotes the empty path.
func (in *Interner) IsEpsilon(id ID) bool {
	in.mu.RLock()
	n := len(in.comp[id])
	in.mu.RUnlock()
	return n == 0
}

// codes2 snapshots the compiled forms of two IDs under one read lock. The
// inner slices are immutable once published, so they can be used after the
// lock is released.
func (in *Interner) codes2(p, q ID) (a, b []uint32) {
	in.mu.RLock()
	a, b = in.comp[p], in.comp[q]
	in.mu.RUnlock()
	return a, b
}

func pairKey(p, q ID) uint64 { return uint64(p)<<32 | uint64(q) }

func shardOf(p, q ID) uint32 {
	return (uint32(p)*2654435761 ^ uint32(q)*2246822519) % verdictShards
}

// ContainedIn reports whether L(p) ⊆ L(q) over interned IDs, serving warm
// pairs from the verdict cache and cold pairs from the iterative kernel.
func (in *Interner) ContainedIn(p, q ID) bool {
	if p == q {
		return true
	}
	sh := &in.contain[shardOf(p, q)]
	k := pairKey(p, q)
	if res, ok := sh.get(k); ok {
		return res
	}
	a, b := in.codes2(p, q)
	res := in.containCodes(a, b)
	sh.put(k, res)
	return res
}

// Intersects reports whether L(p) ∩ L(q) ≠ ∅ over interned IDs, with the
// same caching discipline as ContainedIn.
func (in *Interner) Intersects(p, q ID) bool {
	if p == q {
		return true
	}
	// Intersection is symmetric; canonicalize the cache key.
	cp, cq := p, q
	if cq < cp {
		cp, cq = cq, cp
	}
	sh := &in.sect[shardOf(cp, cq)]
	k := pairKey(cp, cq)
	if res, ok := sh.get(k); ok {
		return res
	}
	a, b := in.codes2(p, q)
	res := in.intersectCodes(a, b)
	sh.put(k, res)
	return res
}

// Equivalent reports whether p and q denote the same path set.
func (in *Interner) Equivalent(p, q ID) bool {
	return in.ContainedIn(p, q) && in.ContainedIn(q, p)
}

// rows returns two zeroed DP rows of width w each, plus a release function.
// Small widths live on the caller's stack via the fixed array; long paths
// fall back to a pooled buffer.
func (in *Interner) rows(buf []uint8, w int) (prev, cur []uint8, release func()) {
	if 2*w <= len(buf) {
		return buf[:w], buf[w : 2*w], nil
	}
	tp := in.tables.Get().(*[]uint8)
	t := *tp
	if cap(t) < 2*w {
		t = make([]uint8, 2*w)
		*tp = t
	}
	t = t[:2*w]
	return t[:w], t[w:], func() { in.tables.Put(tp) }
}

// containCodes decides L(P) ⊆ L(Q) with the recurrence of
// Path.ContainedIn, computed bottom-up over two rolling rows:
// row prev is contained(i+1, ·), row cur is contained(i, ·).
func (in *Interner) containCodes(ps, qs []uint32) bool {
	np, nq := len(ps), len(qs)
	var buf [128]uint8
	prev, cur, release := in.rows(buf[:], nq+1)
	if release != nil {
		defer release()
	}
	for i := np; i >= 0; i-- {
		for j := nq; j >= 0; j-- {
			var res bool
			switch {
			case j == nq:
				// L(P[i:]) ⊆ {ε} only if P[i:] is empty.
				res = i == np
			case qs[j] == DescCode:
				// Σ*·L(Q[j+1:]): the gap absorbs nothing, or the first
				// unit of P.
				res = cur[j+1] == 1 || (i < np && prev[j] == 1)
			case i == np:
				res = false
			case ps[i] == DescCode:
				// P generates arbitrary first labels; Q requires one.
				res = false
			default:
				res = ps[i] == qs[j] && prev[j+1] == 1
			}
			if res {
				cur[j] = 1
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return prev[0] == 1
}

// intersectCodes decides L(P) ∩ L(Q) ≠ ∅ with the recurrence of
// Path.Intersects over the same two-row scheme.
func (in *Interner) intersectCodes(ps, qs []uint32) bool {
	np, nq := len(ps), len(qs)
	var buf [128]uint8
	prev, cur, release := in.rows(buf[:], nq+1)
	if release != nil {
		defer release()
	}
	for i := np; i >= 0; i-- {
		for j := nq; j >= 0; j-- {
			var res bool
			switch {
			case i == np && j == nq:
				res = true
			case i < np && ps[i] == DescCode:
				res = prev[j] == 1 || (j < nq && cur[j+1] == 1)
			case j < nq && qs[j] == DescCode:
				res = cur[j+1] == 1 || (i < np && prev[j] == 1)
			case i == np || j == nq:
				res = false
			default:
				res = ps[i] == qs[j] && prev[j+1] == 1
			}
			if res {
				cur[j] = 1
			} else {
				cur[j] = 0
			}
		}
		prev, cur = cur, prev
	}
	return prev[0] == 1
}

// Matches reports whether the concrete label sequence is in L(q), by the
// same greedy linear scan as Path.Matches but over compiled codes. Labels
// the interner has never seen can only be absorbed by "//" steps.
func (in *Interner) Matches(q ID, labels []string) bool {
	var buf [32]uint32
	codes := buf[:0]
	in.mu.RLock()
	qs := in.comp[q]
	for _, l := range labels {
		c, ok := in.labels[l]
		if !ok {
			c = noLabel
		}
		codes = append(codes, c)
	}
	in.mu.RUnlock()
	return matchCodes(codes, qs)
}

// matchCodes is the greedy two-pointer matcher over compiled codes: advance
// through literal steps, and on mismatch fall back to the most recent "//"
// gap, letting it absorb one more label. Linear in len(labels)·gaps worst
// case, allocation-free always.
func matchCodes(labels []uint32, qs []uint32) bool {
	i, j := 0, 0
	star, mark := -1, 0
	for i < len(labels) {
		switch {
		case j < len(qs) && qs[j] == DescCode:
			star, mark = j, i
			j++
		case j < len(qs) && qs[j] == labels[i]:
			i++
			j++
		case star >= 0:
			mark++
			i = mark
			j = star + 1
		default:
			return false
		}
	}
	for j < len(qs) && qs[j] == DescCode {
		j++
	}
	return j == len(qs)
}
