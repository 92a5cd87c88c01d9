package xmlkey

// Tests for what the shared memo keeps: a refutation whose search cut its
// own cycle is published once its component closes, a warm decider
// answers exactly like the reference oracle whatever the query order, and
// an aborted query publishes nothing its abort cut short.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"xkprop/internal/faultinject"
	"xkprop/internal/xpath"
)

// memoEntry is one published goal, rebuilt from its interned IDs.
type memoEntry struct {
	phi Key
	res bool
}

// memoEntries lists the decider's shared memo.
func memoEntries(d *Decider) []memoEntry {
	names := map[uint32][]string{0: nil}
	d.attrs.mu.RLock()
	for k, id := range d.attrs.m {
		names[id] = strings.Split(k, "\x00")
	}
	d.attrs.mu.RUnlock()
	var out []memoEntry
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.RLock()
		for g, res := range s.m {
			phi := New("", d.in.PathOf(g.ctx), d.in.PathOf(g.tgt), names[g.attrs]...)
			out = append(out, memoEntry{phi, res})
		}
		s.mu.RUnlock()
	}
	return out
}

// memoAgreesWithOracle fails t for every memo entry the oracle decides
// differently.
func memoAgreesWithOracle(t *testing.T, d *Decider, sigma []Key) {
	t.Helper()
	for _, e := range memoEntries(d) {
		if want := OracleImplies(sigma, e.phi); e.res != want {
			t.Errorf("memo holds %s = %v, oracle says %v (Σ = %v)", e.phi, e.res, want, sigma)
		}
	}
}

// inMemo reports whether φ, as the decider keys it, is in the shared memo.
func inMemo(d *Decider, phi Key) (res, ok bool) {
	g := goal{
		ctx:   d.in.Intern(phi.Context.Normalize()),
		tgt:   d.in.Intern(phi.Target.Normalize().StripAttribute()),
		attrs: d.attrs.intern(normalizeAttrs(phi.Attrs)),
	}
	return d.shardFor(g).get(g)
}

// TestRefutationOfCycleIsPublished: every refuted uniqueness goal asks
// itself through the unique-prefix split t1 = t, so its search cuts a
// cycle through the goal itself. That component closes with the goal, so
// the refutation is definitive and must reach the shared memo; a second
// identical query is then one memo read and takes no proof step.
func TestRefutationOfCycleIsPublished(t *testing.T) {
	sigma := MustParseSet("(ε, (//b, {@x}))")
	for _, s := range []string{
		"(ε, (//a, {}))",
		"(ε, (a/a/a/a/a/a/a/a, {}))",
	} {
		phi := MustParse(s)
		d := NewDecider(sigma)
		if d.Implies(phi) {
			t.Fatalf("Σ = %v implies %s; the test needs a refutation", sigma, phi)
		}
		res, ok := inMemo(d, phi)
		if !ok || res {
			t.Fatalf("%s after one query: memo (%v, present %v), want a published refutation", phi, res, ok)
		}
		memoAgreesWithOracle(t, d, sigma)
	}

	// A cancelled context is consulted every abortCheckStride proof steps.
	// The long goal's search takes more than that, so on a cold decider
	// it aborts; on a warm one it is answered before any check.
	phi := MustParse("(ε, (a/a/a/a/a/a/a/a, {}))")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewDecider(sigma).ImpliesCtx(cancelled, phi); !errors.Is(err, context.Canceled) {
		t.Fatalf("cold query under a cancelled context: err = %v, want context.Canceled (search too short for the check)", err)
	}
	d := NewDecider(sigma)
	d.Implies(phi)
	got, err := d.ImpliesCtx(cancelled, phi)
	if err != nil || got {
		t.Fatalf("second query = (%v, %v), want (false, nil) from the memo without a proof step", got, err)
	}
}

// derivedGoals returns weakenings and extensions of σ: the target-to-context
// moves of every split of its target, uniqueness of each target prefix,
// the attribute list grown by an attribute and shrunk by one, and the
// target extended by a step. Many of them follow from Σ, so a batch of
// them exercises proofs, not only refutations.
func derivedGoals(r *rand.Rand, sig Key) []Key {
	var out []Key
	tgt := sig.Target.Normalize()
	for i := 0; i <= tgt.Len(); i++ {
		p1, p2 := tgt.Split(i)
		out = append(out, New("", sig.Context.Concat(p1), p2, sig.Attrs...))
		if i > 0 {
			out = append(out, New("", sig.Context, p1))
		}
	}
	out = append(out, New("", sig.Context, tgt, append(append([]string(nil), sig.Attrs...), "y")...))
	if len(sig.Attrs) > 0 {
		out = append(out, New("", sig.Context, tgt, sig.Attrs[1:]...))
	}
	out = append(out, New("", sig.Context, tgt.Concat(xpath.Elem(string(rune('a'+r.Intn(3))))), sig.Attrs...))
	return out
}

// warmBatch builds one Σ and a batch of goals over it: random goals and
// goals derived from Σ's own keys, in random order.
func warmBatch(r *rand.Rand) ([]Key, []Key) {
	sigma := randOracleKeys(r)
	var goals []Key
	for _, sig := range sigma {
		goals = append(goals, derivedGoals(r, sig)...)
	}
	for i := 0; i < 10; i++ {
		var attrs []string
		if r.Intn(2) == 0 {
			attrs = append(attrs, "x")
		}
		if r.Intn(3) == 0 {
			attrs = append(attrs, "y")
		}
		goals = append(goals, New("", randOraclePath(r, 3), randOraclePath(r, 3), attrs...))
	}
	r.Shuffle(len(goals), func(i, j int) { goals[i], goals[j] = goals[j], goals[i] })
	return sigma, goals
}

// TestWarmDeciderMatchesOracle is the seeded differential on a warm
// decider: each Σ gets one decider that answers its whole batch, so most
// queries meet sub-goals published by earlier ones, and every verdict must
// equal the oracle's fresh search. The second half asks each batch from
// four goroutines sharing one decider, each in its own order.
func TestWarmDeciderMatchesOracle(t *testing.T) {
	rounds := 400
	if testing.Short() {
		rounds = 100
	}
	r := rand.New(rand.NewSource(17))
	asked, proved := 0, 0
	for i := 0; i < rounds; i++ {
		sigma, goals := warmBatch(r)
		want := make([]bool, len(goals))
		for j, g := range goals {
			want[j] = OracleImplies(sigma, g)
		}
		d := NewDecider(sigma)
		for j, g := range goals {
			asked++
			if want[j] {
				proved++
			}
			if got := d.Implies(g); got != want[j] {
				t.Fatalf("round %d goal %d: warm decider says %v, oracle %v\nΣ = %v\nφ = %s", i, j, got, want[j], sigma, g)
			}
		}
		memoAgreesWithOracle(t, d, sigma)

		shared := NewDecider(sigma)
		var wg sync.WaitGroup
		errs := make(chan string, 4)
		for w := 0; w < 4; w++ {
			order := r.Perm(len(goals))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, j := range order {
					if got := shared.Implies(goals[j]); got != want[j] {
						errs <- fmt.Sprintf("%s: shared decider says %v, oracle %v", goals[j], got, want[j])
						return
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("round %d: %s\nΣ = %v", i, e, sigma)
		}
	}
	// Derived goals are there to make proofs common; a generator that
	// stopped producing them would leave the positive side untested.
	t.Logf("%d of %d goals implied", proved, asked)
	if proved*5 < asked {
		t.Fatalf("only %d of %d goals were implied; the batches no longer exercise proofs", proved, asked)
	}
}

// TestAbortPublishesNoCutShortRefutation aborts negative queries at every
// cancellation check k in turn. Components that closed before the abort
// may be published, but a refutation the abort cut short must not be:
// every memo entry agrees with the oracle, the aborted goal itself is not
// in the memo, and a later live query on the same decider matches the
// oracle.
func TestAbortPublishesNoCutShortRefutation(t *testing.T) {
	cases := []struct {
		sigma []Key
		phi   Key
	}{
		{deepSigma(6), deepPhi()},
		{deepSigma(10), MustParse("(//a1//b//c1, (//d//e1//f//g//h//i//j, {@k1}))")},
		{MustParseSet("(ε, (//b, {@x}))"), MustParse("(ε, (" + strings.Repeat("a/", 23) + "a, {}))")},
	}
	for _, tc := range cases {
		want := OracleImplies(tc.sigma, tc.phi)
		if want {
			t.Fatalf("%s is implied; the test needs negative queries", tc.phi)
		}
		aborts, published := 0, 0
		for k := int64(1); ; k++ {
			d := NewDecider(tc.sigma)
			_, err := d.ImpliesCtx(faultinject.CountdownContext(context.Background(), k), tc.phi)
			if err == nil {
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("k=%d: err = %v, want context.Canceled", k, err)
			}
			aborts++
			if _, ok := inMemo(d, tc.phi); ok {
				t.Fatalf("k=%d: the aborted goal %s reached the memo", k, tc.phi)
			}
			published += len(memoEntries(d))
			memoAgreesWithOracle(t, d, tc.sigma)
			if got, err := d.ImpliesCtx(context.Background(), tc.phi); err != nil || got != want {
				t.Fatalf("k=%d: live query after the abort = (%v, %v), want (%v, nil)", k, got, err, want)
			}
			memoAgreesWithOracle(t, d, tc.sigma)
		}
		if aborts == 0 {
			t.Fatalf("%s: no k aborted the query; it is too short for the check stride", tc.phi)
		}
		t.Logf("%s: aborted at %d cancellation checks, %d memo entries published before them", tc.phi, aborts, published)
	}
}
