// Package faultinject is a deterministic, seed-driven fault-injection
// harness for the robustness tests of the bounded engine. It provides the
// three fault shapes the ISSUE's stress suite needs:
//
//   - named fault points that fire on an exact, seed-derived hit count
//     (Injector), for allocation-budget exhaustion scenarios;
//   - an io.Reader that fails mid-stream at a chosen byte offset
//     (FailingReader), for the streaming validator;
//   - a context.Context that cancels itself on the k-th cancellation
//     check (CountdownContext), which aborts the implication decider at
//     exactly the k-th budgeted query — deterministically, with no timers.
//
// Everything in this package is deterministic for a given seed: the same
// plan produces the same fault schedule on every run, so a failure found
// under -race shrinks to a reproducible seed instead of a flake.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the sentinel error wrapped by every injected fault, so
// tests can assert errors.Is(err, ErrInjected).
var ErrInjected = errors.New("faultinject: injected fault")

// Injector fires named fault points on exact hit counts. The zero value
// never fires; Arm installs a schedule. Safe for concurrent use.
type Injector struct {
	mu   sync.Mutex
	hits map[string]int64
	plan map[string]int64 // point -> hit number (1-based) on which it fires
	seed int64
}

// New returns an injector whose Roll schedules derive from seed.
func New(seed int64) *Injector {
	return &Injector{
		hits: make(map[string]int64),
		plan: make(map[string]int64),
		seed: seed,
	}
}

// Arm schedules point to fire on its k-th hit (1-based). k <= 0 disarms.
func (in *Injector) Arm(point string, k int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if k <= 0 {
		delete(in.plan, point)
		return
	}
	in.plan[point] = k
}

// Roll arms point to fire on a deterministic, seed-derived hit in
// [1, span], and returns the chosen hit number. Different points (or
// seeds) land on different hits; the same (seed, point, span) always
// lands on the same one.
func (in *Injector) Roll(point string, span int64) int64 {
	if span < 1 {
		span = 1
	}
	k := int64(Derive(in.seed, point)%uint64(span)) + 1
	in.Arm(point, k)
	return k
}

// Derive maps (seed, label) to a deterministic, well-spread 64-bit value:
// splitmix64 over seed ⊕ FNV-1a(label) — cheap, no math/rand, no global
// state. It is the seeding primitive shared by the Injector's Roll and by
// the chaos proxy's per-connection fault plans, so every fault schedule
// in the repository replays byte-identically from its seed.
func Derive(seed int64, label string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	z := uint64(seed) ^ h
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// Hit records one arrival at point and reports whether the fault fires
// (exactly once, on the armed hit count).
func (in *Injector) Hit(point string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.hits[point]++
	return in.plan[point] == in.hits[point]
}

// Err is Hit as an error: nil normally, a wrapped ErrInjected on the
// firing hit.
func (in *Injector) Err(point string) error {
	if in.Hit(point) {
		return fmt.Errorf("%w at point %q (hit %d)", ErrInjected, point, in.Hits(point))
	}
	return nil
}

// Hits reports how many times point has been reached.
func (in *Injector) Hits(point string) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hits[point]
}

// FailingReader reads from R until FailAt bytes have been delivered, then
// returns Err (ErrInjected if Err is nil). With FailAt 0 the first Read
// fails. The failure point is exact: a Read spanning the boundary is
// truncated to it, and the error surfaces on the next call, mimicking a
// connection dropped mid-document.
type FailingReader struct {
	R      io.Reader
	FailAt int64
	Err    error

	read int64
}

func (f *FailingReader) Read(p []byte) (int, error) {
	if f.read >= f.FailAt {
		if f.Err != nil {
			return 0, f.Err
		}
		return 0, fmt.Errorf("%w: reader failed after %d bytes", ErrInjected, f.read)
	}
	if rem := f.FailAt - f.read; int64(len(p)) > rem {
		p = p[:rem]
	}
	n, err := f.R.Read(p)
	f.read += int64(n)
	return n, err
}

// countdownCtx cancels itself on the k-th Err (or Done) consultation.
// The budgeted entry points check ctx.Err() once per unit of work at loop
// granularity, so "cancel on the k-th check" aborts a run at exactly the
// k-th unit — the deterministic analogue of a deadline firing mid-flight.
type countdownCtx struct {
	parent context.Context
	left   atomic.Int64
	done   chan struct{}
	once   sync.Once
}

// CountdownContext returns a context that reports context.Canceled on the
// k-th cancellation check (k >= 1; each Err or Done call counts). Checks
// by concurrent goroutines all draw from the same countdown, so when
// several calls share the context the k-th check overall trips it,
// wherever it lands.
//
// Parent cancellation wins over the countdown: if the parent is cancelled
// mid-countdown, Err reports the parent's error (which may be
// DeadlineExceeded, not just Canceled) and Done closes without waiting
// for the remaining ticks — so goroutines blocked on Done are released,
// exactly as with a plain derived context. The soak harness layers
// countdowns under real deadlines and depends on this ordering.
func CountdownContext(parent context.Context, k int64) context.Context {
	if parent == nil {
		parent = context.Background()
	}
	c := &countdownCtx{parent: parent, done: make(chan struct{})}
	c.left.Store(k)
	// Propagate parent cancellation to Done waiters. AfterFunc registers
	// without spawning for standard contexts; the callback is a no-op
	// close if the countdown already fired.
	context.AfterFunc(parent, func() {
		c.once.Do(func() { close(c.done) })
	})
	return c
}

func (c *countdownCtx) tick() {
	if c.left.Add(-1) <= 0 {
		c.once.Do(func() { close(c.done) })
	}
}

func (c *countdownCtx) Err() error {
	c.tick()
	// Parent errors win: a countdown trip is context.Canceled, but a
	// parent may carry DeadlineExceeded or a cause — never mask it.
	if err := c.parent.Err(); err != nil {
		return err
	}
	select {
	case <-c.done:
		return context.Canceled
	default:
	}
	return nil
}

func (c *countdownCtx) Done() <-chan struct{} {
	c.tick()
	return c.done
}

func (c *countdownCtx) Deadline() (time.Time, bool) { return c.parent.Deadline() }
func (c *countdownCtx) Value(key any) any           { return c.parent.Value(key) }
