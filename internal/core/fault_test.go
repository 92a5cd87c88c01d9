package core

// Fault-injection stress tests for the bounded engine: deterministic
// cancellation at the k-th decider consultation (CountdownContext), budget
// exhaustion mid-cover, and the consistency guarantee that matters after
// any abort — the engine's shared caches never serve a wrong answer to a
// later, uncancelled call. Run with -race: the abort paths cross the
// decider's sharded memo, which concurrent callers of one engine share.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"xkprop/internal/budget"
	"xkprop/internal/faultinject"
	"xkprop/internal/rel"
	"xkprop/internal/workload"
)

func faultWorkload() *workload.Workload {
	return workload.Generate(workload.Config{Fields: 24, Depth: 4, Keys: 8})
}

// coversEqual compares two covers as FD sets.
func coversEqual(a, b []rel.FD) bool {
	return rel.EquivalentCovers(a, b) && len(a) == len(b)
}

// TestMinimumCoverCtxCountdownAbort cancels MinimumCoverCtx at the k-th
// cancellation check for a sweep of k. Every abort must yield
// (nil, context.Canceled); afterwards the same engine must still produce
// the exact cover a fresh engine computes — an aborted run may leave
// partial memo state but never wrong state.
func TestMinimumCoverCtxCountdownAbort(t *testing.T) {
	w := faultWorkload()
	want := NewEngine(w.Sigma, w.Rule).MinimumCover()

	for _, k := range []int64{1, 2, 3, 5, 8, 13, 50, 200} {
		e := NewEngine(w.Sigma, w.Rule)
		ctx := faultinject.CountdownContext(context.Background(), k)
		cover, err := e.MinimumCoverCtx(ctx)
		if err == nil {
			// The countdown may land after the last check on small runs;
			// then the cover must simply be correct.
			if !coversEqual(cover, want) {
				t.Fatalf("k=%d: uncancelled cover differs from sequential", k)
			}
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("k=%d: err = %v, want context.Canceled", k, err)
		}
		if cover != nil {
			t.Fatalf("k=%d: aborted MinimumCoverCtx returned a partial cover", k)
		}
		// The aborted engine must recover fully.
		after, err := e.MinimumCoverCtx(context.Background())
		if err != nil {
			t.Fatalf("k=%d: post-abort run failed: %v", k, err)
		}
		if !coversEqual(after, want) {
			t.Fatalf("k=%d: post-abort cover differs from a fresh engine's", k)
		}
	}
}

// TestExplainCountdownAbort cancels Explain at the k-th cancellation check
// for every k until a run completes, on an FD with two right-hand-side
// fields. Each abort must yield (nil, context.Canceled), a completed run
// must give a live run's narratives, and a live call on the aborted
// engine afterwards must give them too.
func TestExplainCountdownAbort(t *testing.T) {
	w := faultWorkload()
	fd := rel.NewFD(w.ProbeTrue.Lhs, w.ProbeTrue.Rhs.Union(w.ProbeFalse.Rhs))
	render := func(exs []*Explanation) string {
		var b strings.Builder
		for _, ex := range exs {
			b.WriteString(ex.String())
		}
		return b.String()
	}
	live, err := NewEngine(w.Sigma, w.Rule).Explain(nil, fd)
	if err != nil || len(live) != 2 {
		t.Fatalf("live Explain = %d explanations, err %v", len(live), err)
	}
	want := render(live)
	aborts := 0
	for k := int64(1); ; k++ {
		e := NewEngine(w.Sigma, w.Rule)
		exs, err := e.Explain(faultinject.CountdownContext(context.Background(), k), fd)
		if err == nil {
			if got := render(exs); got != want {
				t.Fatalf("k=%d: uncancelled narrative differs:\n%s\nwant:\n%s", k, got, want)
			}
			break
		}
		aborts++
		if !errors.Is(err, context.Canceled) || exs != nil {
			t.Fatalf("k=%d: Explain = (%d explanations, %v), want (nil, context.Canceled)", k, len(exs), err)
		}
		after, err := e.Explain(context.Background(), fd)
		if err != nil || render(after) != want {
			t.Fatalf("k=%d: post-abort narrative differs (err %v)", k, err)
		}
	}
	if aborts < 2 {
		t.Fatalf("only %d aborted runs: the countdown never landed inside a walk", aborts)
	}
}

// TestAnnotatedCoverCountdownAbort cancels AnnotatedCover at the k-th
// cancellation check for a sweep of k. Each abort must yield
// (nil, context.Canceled), a completed run must equal a live run, and a
// live call on the aborted engine afterwards must too: an aborted record
// leaves nothing behind.
func TestAnnotatedCoverCountdownAbort(t *testing.T) {
	w := faultWorkload()
	render := func(anns []AnnotatedFD) string {
		var b strings.Builder
		for _, a := range anns {
			b.WriteString(a.Format(w.Rule.Schema))
		}
		return b.String()
	}
	live, err := NewEngine(w.Sigma, w.Rule).AnnotatedCover(nil)
	if err != nil || len(live) == 0 {
		t.Fatalf("live AnnotatedCover = %d FDs, err %v", len(live), err)
	}
	want := render(live)
	aborts, completed := 0, 0
	for _, k := range []int64{1, 2, 3, 5, 8, 13, 50, 100, 150, 190, 400, 5000} {
		e := NewEngine(w.Sigma, w.Rule)
		anns, err := e.AnnotatedCover(faultinject.CountdownContext(context.Background(), k))
		if err == nil {
			completed++
			if got := render(anns); got != want {
				t.Fatalf("k=%d: uncancelled annotated cover differs:\n%s", k, firstDiff(got, want))
			}
		} else {
			aborts++
			if !errors.Is(err, context.Canceled) || anns != nil {
				t.Fatalf("k=%d: AnnotatedCover = (%d FDs, %v), want (nil, context.Canceled)", k, len(anns), err)
			}
		}
		after, err := e.AnnotatedCover(context.Background())
		if err != nil || render(after) != want {
			t.Fatalf("k=%d: post-abort annotated cover differs (err %v)", k, err)
		}
	}
	if aborts == 0 || completed == 0 {
		t.Fatalf("%d aborted and %d completed runs: the sweep must see both", aborts, completed)
	}
}

// TestSharedEngineCountdownAbort runs countdown aborts and live calls side
// by side on one engine. For each of MinimumCoverCtx, AnnotatedCover and
// PropagatesCtx, one goroutine sweeps CountdownContext over k, with a
// live call after each step, while another makes only live calls. An
// aborted call must return a nil cover or a false verdict with
// context.Canceled; every live call must render exactly what a fresh
// sequential engine does. Run with -race: the calls meet in the decider's
// sharded memo and in the engine's cover cache.
func TestSharedEngineCountdownAbort(t *testing.T) {
	w := faultWorkload()
	sc := w.Rule.Schema
	fds := []rel.FD{w.ProbeTrue, w.ProbeFalse}
	// Each call renders its result; a nil cover and a false verdict list
	// render as "".
	calls := []struct {
		name string
		run  func(e *Engine, ctx context.Context) (string, error)
		want string
	}{
		{name: "MinimumCoverCtx", run: func(e *Engine, ctx context.Context) (string, error) {
			cover, err := e.MinimumCoverCtx(ctx)
			if cover == nil {
				return "", err
			}
			return rel.FormatFDs(sc, cover), err
		}},
		{name: "AnnotatedCover", run: func(e *Engine, ctx context.Context) (string, error) {
			anns, err := e.AnnotatedCover(ctx)
			var b strings.Builder
			for _, a := range anns {
				b.WriteString(a.Format(sc))
			}
			return b.String(), err
		}},
		{name: "PropagatesCtx", run: func(e *Engine, ctx context.Context) (string, error) {
			var b strings.Builder
			for _, fd := range fds {
				ok, err := e.PropagatesCtx(ctx, fd)
				if err != nil {
					if ok {
						return "true", err // an aborted check must answer false
					}
					return "", err
				}
				fmt.Fprintf(&b, "%s: %v\n", fd.Format(sc), ok)
			}
			return b.String(), nil
		}},
	}
	for i := range calls {
		c := &calls[i]
		var err error
		if c.want, err = c.run(NewEngine(w.Sigma, w.Rule), context.Background()); err != nil || c.want == "" {
			t.Fatalf("%s on a fresh engine = %q, err %v", c.name, c.want, err)
		}
	}

	shared := NewEngine(w.Sigma, w.Rule)
	ks := []int64{1, 2, 3, 5, 8, 13, 50, 200, 1000}
	var wg sync.WaitGroup
	for _, c := range calls {
		live := func(what string) {
			if got, err := c.run(shared, context.Background()); err != nil || got != c.want {
				t.Errorf("%s: %s: err %v, output differs:\n%s", c.name, what, err, firstDiff(got, c.want))
			}
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			aborts := 0
			for _, k := range ks {
				got, err := c.run(shared, faultinject.CountdownContext(context.Background(), k))
				switch {
				case err == nil && got != c.want:
					t.Errorf("%s: k=%d: uncancelled output differs:\n%s", c.name, k, firstDiff(got, c.want))
				case err != nil:
					aborts++
					if !errors.Is(err, context.Canceled) || got != "" {
						t.Errorf("%s: k=%d: aborted call = (%q, %v), want (\"\", context.Canceled)", c.name, k, got, err)
					}
				}
				live(fmt.Sprintf("live call after k=%d", k))
			}
			if aborts == 0 {
				t.Errorf("%s: no k in %v aborted a call", c.name, ks)
			}
		}()
		go func() {
			defer wg.Done()
			for range ks {
				live("live call")
			}
		}()
	}
	wg.Wait()
}

// TestGPropagatesCtxCacheNotPoisoned aborts the lazy cover build behind
// GPropagates and checks the failed build is not cached: a later call with
// a live context must succeed and agree with the unbudgeted path.
func TestGPropagatesCtxCacheNotPoisoned(t *testing.T) {
	w := faultWorkload()
	e := NewEngine(w.Sigma, w.Rule)

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.GPropagatesCtx(cancelled, w.ProbeTrue); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled cover build: err = %v, want context.Canceled", err)
	}

	ok, err := e.GPropagatesCtx(context.Background(), w.ProbeTrue)
	if err != nil {
		t.Fatalf("post-abort GPropagatesCtx failed: %v", err)
	}
	if want := NewEngine(w.Sigma, w.Rule).GPropagates(w.ProbeTrue); ok != want {
		t.Fatalf("post-abort GPropagates = %v, want %v", ok, want)
	}
}

// TestNaiveCoverCtxFieldCap checks the typed refusal on wide schemas and
// that Budget.MaxEnumFields moves the cap (within the hard ceiling).
func TestNaiveCoverCtxFieldCap(t *testing.T) {
	w := workload.Generate(workload.Config{Fields: 26, Depth: 2, Keys: 2})
	e := NewEngine(w.Sigma, w.Rule)

	_, err := e.NaiveCoverCtx(nil)
	var be *budget.Error
	if !errors.As(err, &be) {
		t.Fatalf("26 fields: err = %v, want *budget.Error", err)
	}
	if be.Resource != budget.EnumFields || be.Limit != budget.DefaultEnumFields {
		t.Fatalf("wrong budget error: %+v", be)
	}

	// Raising the cap admits the schema (26 fields is slow but feasible —
	// abort immediately via a cancelled context; the point is to get past
	// the cap check).
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := budget.With(cancelled, budget.Budget{MaxEnumFields: 28})
	if _, err := e.NaiveCoverCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("raised cap: err = %v, want context.Canceled", err)
	}

	// The hard ceiling wins over absurd budgets.
	huge := budget.With(context.Background(), budget.Budget{MaxEnumFields: 1 << 20})
	w2 := workload.Generate(workload.Config{Fields: 40, Depth: 2, Keys: 2})
	_, err = NewEngine(w2.Sigma, w2.Rule).NaiveCoverCtx(huge)
	if !errors.As(err, &be) || be.Limit != 30 {
		t.Fatalf("40 fields under huge budget: err = %v, want hard-cap budget error", err)
	}
}

// TestNaiveCoverCtxAbortMidEnumeration cancels at a seed-derived point
// inside the candidate enumeration.
func TestNaiveCoverCtxAbortMidEnumeration(t *testing.T) {
	w := workload.Generate(workload.Config{Fields: 12, Depth: 3, Keys: 4})
	e := NewEngine(w.Sigma, w.Rule)
	in := faultinject.New(1234)
	k := in.Roll("naive-abort", 5000)
	ctx := faultinject.CountdownContext(context.Background(), k)
	cover, err := e.NaiveCoverCtx(ctx)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if cover != nil {
			t.Fatal("aborted NaiveCoverCtx returned a partial cover")
		}
		return
	}
	// Countdown landed past the end: result must match the legacy path.
	if !coversEqual(cover, e.NaiveCover()) {
		t.Fatal("uncancelled NaiveCoverCtx differs from NaiveCover")
	}
}

// TestPropagatesCtxNilEquivalence pins that the nil-context path and the
// background-context path agree with the legacy API on both probe FDs.
func TestPropagatesCtxNilEquivalence(t *testing.T) {
	w := faultWorkload()
	e := NewEngine(w.Sigma, w.Rule)
	for _, fd := range []rel.FD{w.ProbeTrue, w.ProbeFalse} {
		want := e.Propagates(fd)
		got, err := e.PropagatesCtx(nil, fd)
		if err != nil || got != want {
			t.Fatalf("PropagatesCtx(nil) = (%v, %v), want (%v, nil)", got, err, want)
		}
		got, err = e.PropagatesCtx(context.Background(), fd)
		if err != nil || got != want {
			t.Fatalf("PropagatesCtx(Background) = (%v, %v), want (%v, nil)", got, err, want)
		}
	}
}
