package core

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"xkprop/internal/rel"
	"xkprop/internal/workload"
)

// sameFDs reports whether two FD slices are identical element by element,
// which is stronger than cover equivalence.
func sameFDs(a, b []rel.FD) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Lhs.Equal(b[i].Lhs) || !a[i].Rhs.Equal(b[i].Rhs) {
			return false
		}
	}
	return true
}

// grid returns the §6 configuration grid, trimmed in -short mode (the race
// verify runs with -short) to a handful of representative points so the run
// stays fast under the race detector on small machines.
func grid(t *testing.T) []workload.Config {
	t.Helper()
	if testing.Short() {
		return []workload.Config{
			{Fields: 15, Depth: 5, Keys: 10},
			{Fields: 50, Depth: 5, Keys: 10},
			{Fields: 15, Depth: 10, Keys: 10},
			{Fields: 15, Depth: 5, Keys: 50},
		}
	}
	return workload.Sec6Grid(0)
}

// probeFDs builds a deterministic mix of FDs over the workload's schema:
// the designed true/false probes plus synthetic candidates that exercise
// both verdicts and degenerate shapes.
func probeFDs(w *workload.Workload) []rel.FD {
	n := w.Rule.Schema.Len()
	fds := []rel.FD{w.ProbeTrue, w.ProbeFalse}
	for i := 0; i < 8; i++ {
		lhs := rel.AttrSet{}.With(i % n).With((i * 7) % n)
		rhs := rel.AttrSet{}.With((i * 3) % n)
		fds = append(fds, rel.NewFD(lhs, rhs))
	}
	fds = append(fds, rel.NewFD(w.ProbeTrue.Lhs, rel.AttrSet{})) // X → ∅
	return fds
}

// TestParallelCoversBitIdenticalGrid checks, over the §6 grid, that
// callers running in parallel on one shared engine (so on one decider
// memo) get a fresh sequential engine's answers: two goroutines compute
// MinimumCover at once, element by element equal to the sequential cover,
// and one of them also checks every probe FD with Propagates.
func TestParallelCoversBitIdenticalGrid(t *testing.T) {
	for _, cfg := range grid(t) {
		t.Run(fmt.Sprintf("fields=%d/depth=%d/keys=%d", cfg.Fields, cfg.Depth, cfg.Keys), func(t *testing.T) {
			w := workload.Generate(cfg)
			seq := NewEngine(w.Sigma, w.Rule)
			want := seq.MinimumCover()
			fds := probeFDs(w)
			verdicts := make([]bool, len(fds))
			for i, fd := range fds {
				verdicts[i] = seq.Propagates(fd)
			}

			shared := NewEngine(w.Sigma, w.Rule)
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if got := shared.MinimumCover(); !sameFDs(got, want) {
						t.Errorf("goroutine %d: cover differs from sequential:\nseq: %v\ngot: %v",
							g, seq.CoverAsStrings(want), shared.CoverAsStrings(got))
					}
					if g > 0 {
						return
					}
					for i, fd := range fds {
						if got := shared.Propagates(fd); got != verdicts[i] {
							t.Errorf("Propagates(%s) = %v, sequential %v", fd.Format(w.Rule.Schema), got, verdicts[i])
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestEngineConcurrentStress is the -race stress test of one shared
// engine (hence one shared decider memo and one cover cache): goroutines
// run MinimumCover, CachedCoverCtx, GPropagates and Propagates on it in
// rotation, and every answer is checked against a sequential engine
// computed up front.
func TestEngineConcurrentStress(t *testing.T) {
	cfgs := []workload.Config{
		{Fields: 15, Depth: 5, Keys: 10},
		{Fields: 50, Depth: 5, Keys: 20},
		{Fields: 60, Depth: 10, Keys: 10},
	}
	if testing.Short() {
		cfgs = cfgs[:1]
	}
	for _, cfg := range cfgs {
		t.Run(fmt.Sprintf("fields=%d/depth=%d/keys=%d", cfg.Fields, cfg.Depth, cfg.Keys), func(t *testing.T) {
			w := workload.Generate(cfg)
			fds := probeFDs(w)

			seq := NewEngine(w.Sigma, w.Rule)
			wantCover := seq.MinimumCover()
			wantVerdicts := make([]bool, len(fds))
			for i, fd := range fds {
				wantVerdicts[i] = seq.Propagates(fd)
			}
			wantG := seq.GPropagates(w.ProbeTrue)

			shared := NewEngine(w.Sigma, w.Rule)
			const goroutines = 8
			rounds := 4
			if testing.Short() {
				rounds = 2
			}
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						switch (g + r) % 4 {
						case 0:
							if got := shared.MinimumCover(); !sameFDs(got, wantCover) {
								t.Error("MinimumCover diverged")
								return
							}
						case 1:
							got, err := shared.CachedCoverCtx(context.Background())
							if err != nil || !sameFDs(got, wantCover) {
								t.Errorf("CachedCoverCtx diverged (err %v)", err)
								return
							}
						case 2:
							if shared.GPropagates(w.ProbeTrue) != wantG {
								t.Error("GPropagates diverged")
								return
							}
						default:
							for i, fd := range fds {
								if shared.Propagates(fd) != wantVerdicts[i] {
									t.Errorf("Propagates(%s) diverged", fd.Format(w.Rule.Schema))
									return
								}
							}
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
