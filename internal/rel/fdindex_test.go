package rel

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"xkprop/internal/faultinject"
)

// randomFDs builds a seeded FD list over nAttrs attributes: mostly chained
// FDs (so closures cascade, the regime where the fixpoint re-scans), plus
// random noise FDs, an occasional empty-LHS FD and an occasional wide RHS.
func randomFDs(r *rand.Rand, nAttrs, nFDs int) []FD {
	fds := make([]FD, 0, nFDs)
	for i := 0; i < nFDs; i++ {
		var lhs, rhs AttrSet
		switch r.Intn(10) {
		case 0: // empty LHS: ∅ → A
			rhs = rhs.With(r.Intn(nAttrs))
		case 1: // wide RHS
			lhs = lhs.With(r.Intn(nAttrs))
			for j := 0; j < 1+r.Intn(4); j++ {
				rhs = rhs.With(r.Intn(nAttrs))
			}
		default:
			w := 1 + r.Intn(3)
			for j := 0; j < w; j++ {
				lhs = lhs.With(r.Intn(nAttrs))
			}
			rhs = rhs.With(r.Intn(nAttrs))
		}
		fds = append(fds, FD{Lhs: lhs, Rhs: rhs})
	}
	return fds
}

func randomSet(r *rand.Rand, nAttrs, card int) AttrSet {
	var x AttrSet
	for j := 0; j < card; j++ {
		x = x.With(r.Intn(nAttrs))
	}
	return x
}

func TestFDIndexClosureAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for caseNo := 0; caseNo < 300; caseNo++ {
		nAttrs := 1 + r.Intn(130) // crosses the one-word boundary
		fds := randomFDs(r, nAttrs, r.Intn(40))
		ix := NewFDIndex(fds)
		if caseNo%2 == 0 {
			ix.EnableCache(0)
		}
		for q := 0; q < 5; q++ {
			x := randomSet(r, nAttrs, r.Intn(4))
			want := Closure(fds, x)
			got := ix.Closure(x)
			if !got.Equal(want) {
				t.Fatalf("case %d: indexed closure %v != fixpoint %v (x=%v, fds=%v)",
					caseNo, got.Positions(), want.Positions(), x.Positions(), fds)
			}
			// A repeat must agree too (cache hit path on even cases).
			if again := ix.Closure(x); !again.Equal(want) {
				t.Fatalf("case %d: repeat closure diverged", caseNo)
			}
		}
	}
}

func TestFDIndexImpliesAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for caseNo := 0; caseNo < 300; caseNo++ {
		nAttrs := 1 + r.Intn(80)
		fds := randomFDs(r, nAttrs, r.Intn(30))
		ix := NewFDIndex(fds)
		for q := 0; q < 8; q++ {
			g := FD{Lhs: randomSet(r, nAttrs, r.Intn(3)), Rhs: randomSet(r, nAttrs, 1+r.Intn(3))}
			if got, want := ix.Implies(g), Implies(fds, g); got != want {
				t.Fatalf("case %d: indexed Implies=%v, oracle=%v (g=%v, fds=%v)",
					caseNo, got, want, g, fds)
			}
		}
	}
}

// TestFDIndexImpliesLive: zeroing dep i's live row answers as the list
// without FD i, and clearing one attribute A of it answers as the list
// with X → A taken out of FD i.
func TestFDIndexImpliesLive(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for caseNo := 0; caseNo < 150; caseNo++ {
		nAttrs := 1 + r.Intn(40)
		fds := randomFDs(r, nAttrs, 1+r.Intn(15))
		ix := NewFDIndex(fds)
		live := ix.liveRows()
		for i, f := range fds {
			rest := make([]FD, 0, len(fds))
			rest = append(rest, fds[:i]...)
			rest = append(rest, fds[i+1:]...)
			row := live[i*ix.nWords : (i+1)*ix.nWords]
			clear(row)
			if got, want := ix.impliesLive(f, live), Implies(rest, f); got != want {
				t.Fatalf("case %d: impliesLive(%d) with its row zeroed = %v, oracle=%v", caseNo, i, got, want)
			}
			copy(row, f.Rhs.trim().words)
			for _, a := range f.Rhs.Positions() {
				row[a/64] &^= 1 << (uint(a) % 64)
				g := FD{Lhs: f.Lhs, Rhs: AttrSet{}.With(a)}
				others := append(append([]FD(nil), rest...), FD{Lhs: f.Lhs, Rhs: f.Rhs.Without(a)})
				if got, want := ix.impliesLive(g, live), Implies(others, g); got != want {
					t.Fatalf("case %d: impliesLive(%d) with %d cleared = %v, oracle=%v", caseNo, i, a, got, want)
				}
				row[a/64] |= 1 << (uint(a) % 64)
			}
		}
	}
}

func TestFDIndexEmptyAndZeroLHS(t *testing.T) {
	s := MustSchema("r", "a", "b", "c")
	// ∅ → a chains into a → b.
	fds := []FD{
		{Lhs: AttrSet{}, Rhs: s.MustSet("a")},
		{Lhs: s.MustSet("a"), Rhs: s.MustSet("b")},
	}
	ix := NewFDIndex(fds)
	if got := ix.Closure(AttrSet{}); !got.Equal(s.MustSet("a", "b")) {
		t.Fatalf("∅⁺ = %v, want {a, b}", s.Names(got))
	}
	// An empty index closes any start set to itself.
	empty := NewFDIndex(nil)
	x := s.MustSet("b", "c")
	if got := empty.Closure(x); !got.Equal(x) {
		t.Fatalf("closure under no FDs changed the set: %v", s.Names(got))
	}
	if !empty.Implies(FD{Lhs: x, Rhs: s.MustSet("c")}) {
		t.Fatal("reflexive FD not implied by the empty index")
	}
}

// TestClosureWideStartSet pins the satellite-6 edge: a start set whose
// bitset is wider than every RHS in the FD list must round-trip through
// both closure implementations without truncation.
func TestClosureWideStartSet(t *testing.T) {
	lhs := AttrSet{}.With(0)
	rhs := AttrSet{}.With(1)
	fds := []FD{{Lhs: lhs, Rhs: rhs}}
	x := AttrSet{}.With(0).With(200) // word 3, beyond every RHS word
	want := AttrSet{}.With(0).With(1).With(200)
	if got := Closure(fds, x); !got.Equal(want) {
		t.Fatalf("fixpoint Closure truncated the wide start set: %v", got.Positions())
	}
	if got := NewFDIndex(fds).Closure(x); !got.Equal(want) {
		t.Fatalf("indexed Closure truncated the wide start set: %v", got.Positions())
	}
	// The wide bit alone must also satisfy reflexive implication.
	if !NewFDIndex(fds).Implies(FD{Lhs: x, Rhs: AttrSet{}.With(200)}) {
		t.Fatal("indexed Implies lost the out-of-index attribute")
	}
}

// TestSubsetWordsMismatchedLengths pins subsetWords on word slices of
// different lengths, in both directions.
func TestSubsetWordsMismatchedLengths(t *testing.T) {
	short := []uint64{0b1}
	long := []uint64{0b1, 0b10}
	if !subsetWords(short, long) {
		t.Fatal("short ⊆ long failed")
	}
	if subsetWords(long, short) {
		t.Fatal("long ⊆ short accepted despite the high word")
	}
	longZero := []uint64{0b1, 0}
	if !subsetWords(longZero, short) {
		t.Fatal("long-with-zero-high-word ⊆ short failed")
	}
	if !subsetWords(nil, short) || !subsetWords(nil, nil) {
		t.Fatal("∅ must be a subset of everything")
	}
}

func TestClosureCacheEviction(t *testing.T) {
	s := MustSchema("r", "a", "b", "c", "d")
	fds := []FD{{Lhs: s.MustSet("a"), Rhs: s.MustSet("b")}}
	ix := NewFDIndex(fds)
	ix.EnableCache(2)
	_, _, evBefore := ClosureCacheCounters()
	for _, name := range []string{"a", "b", "c", "d"} {
		ix.Closure(s.MustSet(name))
	}
	if n := ix.CacheLen(); n > 2 {
		t.Fatalf("cache holds %d entries, cap is 2", n)
	}
	if _, _, evAfter := ClosureCacheCounters(); evAfter-evBefore < 2 {
		t.Fatalf("expected >= 2 evictions, counter moved by %d", evAfter-evBefore)
	}
	// Evicted entries recompute correctly.
	for _, name := range []string{"a", "b", "c", "d"} {
		want := Closure(fds, s.MustSet(name))
		if got := ix.Closure(s.MustSet(name)); !got.Equal(want) {
			t.Fatalf("post-eviction closure of {%s} = %v, want %v", name, got.Positions(), want.Positions())
		}
	}
}

func TestClosureCtxAbort(t *testing.T) {
	s := MustSchema("r", "a", "b")
	fds := []FD{{Lhs: s.MustSet("a"), Rhs: s.MustSet("b")}}
	ix := NewFDIndex(fds)
	ix.EnableCache(0)

	// Already-cancelled context: typed error, nothing published.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ix.ClosureCtx(ctx, s.MustSet("a")); err == nil {
		t.Fatal("ClosureCtx on a cancelled context returned no error")
	}
	if n := ix.CacheLen(); n != 0 {
		t.Fatalf("cancelled query published %d cache entries", n)
	}

	// Context tripping between entry and publish: the result is computed
	// and correct, but never published — an aborted request cannot grow
	// shared state.
	cd := faultinject.CountdownContext(context.Background(), 2)
	got, err := ix.ClosureCtx(cd, s.MustSet("a"))
	if err != nil {
		t.Fatalf("mid-flight abort surfaced as an error: %v", err)
	}
	if want := s.MustSet("a", "b"); !got.Equal(want) {
		t.Fatalf("aborted query returned wrong closure %v", got.Positions())
	}
	if n := ix.CacheLen(); n != 0 {
		t.Fatalf("aborted query published %d cache entries, want 0", n)
	}

	// A live context afterwards populates the cache normally.
	if _, err := ix.ClosureCtx(context.Background(), s.MustSet("a")); err != nil {
		t.Fatalf("live query failed: %v", err)
	}
	if n := ix.CacheLen(); n != 1 {
		t.Fatalf("live query published %d entries, want 1", n)
	}
}

// TestFDIndexClosureZeroAlloc pins the steady-state allocation contract:
// warm cached Closure and (always) Implies run without allocating.
func TestFDIndexClosureZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool bypasses itself under -race; allocation counts are meaningless")
	}
	r := rand.New(rand.NewSource(17))
	fds := randomFDs(r, 100, 150)
	ix := NewFDIndex(fds)
	ix.EnableCache(0)
	x := randomSet(r, 100, 3)
	g := FD{Lhs: x, Rhs: randomSet(r, 100, 2)}
	ix.Closure(x) // warm the cache and the scratch pool
	ix.Implies(g)
	if n := testing.AllocsPerRun(100, func() { ix.Closure(x) }); n != 0 {
		t.Errorf("warm FDIndex.Closure allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { ix.Implies(g) }); n != 0 {
		t.Errorf("FDIndex.Implies allocates %.1f/op, want 0", n)
	}
}

// TestFDIndexSharedStress races 8 goroutines against one shared index with
// the cache enabled while countdown contexts abort concurrently: every
// verdict must match the fixpoint oracle (deterministic under concurrency),
// and after the storm the cache must hold no poisoned entry.
func TestFDIndexSharedStress(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	nAttrs := 64
	fds := randomFDs(r, nAttrs, 80)
	ix := NewFDIndex(fds)
	ix.EnableCache(32) // small cap: force eviction churn under race
	// Precompute the oracle answers for a fixed query set.
	queries := make([]AttrSet, 24)
	want := make([]AttrSet, len(queries))
	for i := range queries {
		queries[i] = randomSet(r, nAttrs, 1+r.Intn(3))
		want[i] = Closure(fds, queries[i])
	}
	rounds := 200
	if testing.Short() {
		rounds = 50
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			gr := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				q := gr.Intn(len(queries))
				var got AttrSet
				if i%3 == 0 {
					// Aborting context: whatever countdown it survives to,
					// a returned result must still be the true closure.
					cd := faultinject.CountdownContext(context.Background(), int64(gr.Intn(3)))
					var err error
					got, err = ix.ClosureCtx(cd, queries[q])
					if err != nil {
						continue
					}
				} else {
					got = ix.Closure(queries[q])
				}
				if !got.Equal(want[q]) {
					errs <- "closure verdict diverged under concurrency"
					return
				}
				gfd := FD{Lhs: queries[q], Rhs: want[q]}
				if !ix.Implies(gfd) {
					errs <- "Implies rejected a true implication under concurrency"
					return
				}
			}
		}(int64(g) + 100)
	}
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	// Cache-not-poisoned sweep: every query must still agree with the
	// oracle once the concurrent aborts are over.
	for i, q := range queries {
		if got := ix.Closure(q); !got.Equal(want[i]) {
			t.Fatalf("query %d poisoned after concurrent aborts: %v != %v",
				i, got.Positions(), want[i].Positions())
		}
	}
}

// FuzzLinClosure cross-checks the indexed closure against the fixpoint
// oracle on fuzzer-built FD lists: 16-byte chunks of data become (LHS, RHS)
// 64-bit masks over nAttrs attributes, start is the query set. It also
// checks Minimize against the per-FD reference on the same list.
func FuzzLinClosure(f *testing.F) {
	f.Add(uint8(8), uint64(1), []byte{})
	f.Add(uint8(16), uint64(3),
		[]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint8(64), uint64(1<<63),
		[]byte{0, 0, 0, 0, 0, 0, 0, 0x80, 0xff, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, nAttrs uint8, start uint64, data []byte) {
		n := int(nAttrs%64) + 1
		mask := uint64(1)<<uint(n) - 1
		if n == 64 {
			mask = ^uint64(0)
		}
		var fds []FD
		for len(data) >= 16 && len(fds) < 64 {
			lhs := uint64(0)
			rhs := uint64(0)
			for i := 0; i < 8; i++ {
				lhs |= uint64(data[i]) << (8 * i)
				rhs |= uint64(data[8+i]) << (8 * i)
			}
			data = data[16:]
			fds = append(fds, FD{
				Lhs: AttrSet{words: []uint64{lhs & mask}}.trim(),
				Rhs: AttrSet{words: []uint64{rhs & mask}}.trim(),
			})
		}
		x := AttrSet{words: []uint64{start & mask}}.trim()
		want := Closure(fds, x)
		ix := NewFDIndex(fds)
		got := ix.Closure(x)
		if !got.Equal(want) {
			t.Fatalf("indexed closure %v != fixpoint %v (x=%v)",
				got.Positions(), want.Positions(), x.Positions())
		}
		goal := FD{Lhs: x, Rhs: want}
		if !ix.Implies(goal) {
			t.Fatalf("index rejected X → X⁺")
		}
		extra := AttrSet{words: []uint64{^start & mask}}.trim()
		g2 := FD{Lhs: x, Rhs: extra}
		if got, want := ix.Implies(g2), Implies(fds, g2); got != want {
			t.Fatalf("Implies diverged: indexed %v, oracle %v", got, want)
		}
		// The cover: Minimize over the LHS groups returns the per-FD
		// cover, and that cover is equivalent and non-redundant.
		cover := Minimize(fds)
		if want, _, _ := minimizePerFD(fds); !sameFDs(cover, want) {
			t.Fatalf("Minimize %v, per-FD reference %v", cover, want)
		}
		if !EquivalentCovers(fds, cover) || !IsNonRedundant(cover) {
			t.Fatalf("Minimize %v is not an equivalent non-redundant cover of %v", cover, fds)
		}
	})
}
