package xmlkey

// Tests for the decider's abort plumbing: cancellation and cache budgets
// must stop a query with a typed error, and — the soundness property — an
// aborted query must never publish a verdict the abort cut short into the
// shared memo. The stress tests share one decider across goroutines and
// run under -race.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"xkprop/internal/budget"
	"xkprop/internal/faultinject"
)

// deepSigma builds an adversarial key set over long "//"-laced paths: the
// implication search has to expand many prefix splits per query, which is
// what makes the budgets bite.
func deepSigma(n int) []Key {
	var sigma []Key
	for i := 0; i < n; i++ {
		sigma = append(sigma, MustParse(fmt.Sprintf(
			"(//a%d//b//c%d, (//d//e%d//f, {@k%d}))", i, i, i%3, i%2)))
	}
	return sigma
}

func deepPhi() Key {
	return MustParse("(//a0//b//c0, (//d//e0//f//g//h, {@k0}))")
}

func TestImpliesCtxCancelled(t *testing.T) {
	sigma := deepSigma(6)
	phi := deepPhi()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := NewDecider(sigma)
	if _, err := d.ImpliesCtx(ctx, phi); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The same decider still answers correctly afterwards.
	want := NewDecider(sigma).Implies(phi)
	got, err := d.ImpliesCtx(context.Background(), phi)
	if err != nil || got != want {
		t.Fatalf("post-abort ImpliesCtx = (%v, %v), want (%v, nil)", got, err, want)
	}
}

func TestImpliesCtxNilEquivalence(t *testing.T) {
	sigma := deepSigma(4)
	phi := deepPhi()
	d := NewDecider(sigma)
	want := d.Implies(phi)
	got, err := d.ImpliesCtx(nil, phi)
	if err != nil || got != want {
		t.Fatalf("ImpliesCtx(nil) = (%v, %v), want (%v, nil)", got, err, want)
	}
	if got2, err := ImpliesCtx(context.Background(), sigma, phi); err != nil || got2 != want {
		t.Fatalf("package ImpliesCtx = (%v, %v), want (%v, nil)", got2, err, want)
	}
}

func TestBudgetMemoEntriesExhaustion(t *testing.T) {
	sigma := deepSigma(8)
	phi := deepPhi()
	ctx := budget.With(context.Background(), budget.Budget{MaxMemoEntries: 1})
	d := NewDecider(sigma)
	// Warm the memo past the budget (self-implications publish positive
	// sub-proofs) so the next budgeted query must trip.
	d.Implies(phi)
	for _, k := range sigma {
		d.Implies(k)
	}
	if d.MemoSize() < 1 {
		t.Fatal("warm-up published no memo entries; budget cannot be exercised")
	}
	_, err := d.ImpliesCtx(ctx, MustParse("(//a1//b//c1, (//d//e1//f//g, {@k1}))"))
	var be *budget.Error
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *budget.Error", err)
	}
	if be.Resource != budget.MemoEntries {
		t.Fatalf("resource = %q, want %q", be.Resource, budget.MemoEntries)
	}
}

func TestBudgetInternEntriesExhaustion(t *testing.T) {
	sigma := deepSigma(8)
	d := NewDecider(sigma)
	ctx := budget.With(context.Background(), budget.Budget{MaxInternEntries: 1})
	_, err := d.ImpliesCtx(ctx, deepPhi())
	var be *budget.Error
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *budget.Error", err)
	}
	if be.Resource != budget.InternEntries {
		t.Fatalf("resource = %q, want %q", be.Resource, budget.InternEntries)
	}
}

// TestMemoConsistencyAfterConcurrentAborts is the core -race stress: many
// goroutines hammer one decider, some with countdown contexts that abort
// at seed-derived points, some unbudgeted. Afterwards, every query
// re-answered on the torn decider must match a fresh decider — aborted
// searches must not have published refutations their abort cut short.
func TestMemoConsistencyAfterConcurrentAborts(t *testing.T) {
	sigma := deepSigma(10)
	var phis []Key
	for i := 0; i < 12; i++ {
		phis = append(phis, MustParse(fmt.Sprintf(
			"(//a%d//b//c%d, (//d//e%d//f//g, {@k%d}))", i%10, i%10, i%3, i%2)))
	}

	d := NewDecider(sigma)
	inj := faultinject.New(99)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, phi := range phis {
				if (g+i)%2 == 0 {
					k := inj.Roll(fmt.Sprintf("abort-%d-%d", g, i), 64)
					ctx := faultinject.CountdownContext(context.Background(), k)
					d.ImpliesCtx(ctx, phi) // outcome irrelevant; torn state is the point
				} else {
					d.Implies(phi)
				}
			}
		}(g)
	}
	wg.Wait()

	fresh := NewDecider(sigma)
	for i, phi := range phis {
		want := fresh.Implies(phi)
		got, err := d.ImpliesCtx(context.Background(), phi)
		if err != nil {
			t.Fatalf("phi %d: post-stress query failed: %v", i, err)
		}
		if got != want {
			t.Fatalf("phi %d: torn decider says %v, fresh says %v — cut-short refutation leaked into the memo", i, got, want)
		}
	}
}
