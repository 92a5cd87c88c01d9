package main

import (
	"bufio"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// reps collects repeated timings of a fixed set of items, documents or
// schemas. On a shared virtual machine the process stalls for a
// millisecond or more dozens of times a second, and for tens of
// milliseconds now and then. So rates and closed-loop percentiles take
// each item at its median repetition, the repetitions spread over the
// whole run: a stall that hits fewer than half of an item's repetitions
// does not move it, while a change that slows the item moves its median.
// The fastest repetition would ignore stalls too, but it varies more from
// one process to the next than the median does.
type reps struct {
	times [][]float64 // per item, ms
	order []int       // the item of each sample, in run order
}

func newReps(items int) *reps { return &reps{times: make([][]float64, items)} }

func (p *reps) add(item int, ms float64) {
	p.times[item] = append(p.times[item], ms)
	p.order = append(p.order, item)
}

// pass returns the time of one pass over every sampled item, each at
// its median repetition, in ms, and which items were sampled.
func (p *reps) pass() (ms float64, sampled []int) {
	for i, ts := range p.times {
		if len(ts) > 0 {
			ms += median(ts)
			sampled = append(sampled, i)
		}
	}
	return ms, sampled
}

// typical returns the samples of the complete passes over the items, each
// replaced by its item's median repetition: the latency distribution of
// the run's operations without the stalls, every item weighted alike.
// The loops visit every item once per pass, so the complete passes come
// first.
func (p *reps) typical() []float64 {
	if len(p.times) == 0 {
		return nil
	}
	med := make([]float64, len(p.times))
	for i, ts := range p.times {
		if len(ts) > 0 {
			med[i] = median(ts)
		}
	}
	order := p.order
	if n := len(order) / len(p.times) * len(p.times); n > 0 {
		order = order[:n]
	}
	out := make([]float64, len(order))
	for k, i := range order {
		out[k] = med[i]
	}
	return out
}

// shuffled visits n items pass after pass, each pass in a fresh seeded
// order. Items visited in a fixed order keep their place in the cycle of
// garbage collections, which repeats with every pass: the same items are
// charged with a collection in every pass, and which ones depends on the
// process's starting heap. Their medians, and any median over items, then
// jump from one process to the next. A fresh order per pass spreads the
// collections over all items alike.
type shuffled struct {
	rng  *rand.Rand
	perm []int
}

func newShuffled(seed int64, n int) *shuffled {
	s := &shuffled{rng: rand.New(rand.NewSource(seed)), perm: make([]int, n)}
	for i := range s.perm {
		s.perm[i] = i
	}
	return s
}

// item returns the item of visit k; k counts visits from 0 without gaps.
func (s *shuffled) item(k int) int {
	n := len(s.perm)
	if k%n == 0 {
		s.rng.Shuffle(n, func(i, j int) { s.perm[i], s.perm[j] = s.perm[j], s.perm[i] })
	}
	return s.perm[k%n]
}

// interleaved times a fixed set of items in passes that a workload runs
// between the passes or blocks of its own loop, for its secondary
// measurements: the small-document shreds on design and serve, serve's
// cold design path. They thus sample the whole run, and a slow spell of
// the machine falls on a few of each item's repetitions instead of all of
// them.
type interleaved struct {
	p     *reps
	order *shuffled
	k     int
	visit func(i int) time.Duration // runs item i once and returns its time
}

func newInterleaved(seed int64, n int, visit func(int) time.Duration) *interleaved {
	return &interleaved{p: newReps(n), order: newShuffled(seed, n), visit: visit}
}

// pass visits every item once, in a fresh order.
func (it *interleaved) pass() {
	for range len(it.p.times) {
		i := it.order.item(it.k)
		it.k++
		it.p.add(i, ms(it.visit(i)))
	}
}

// passesFor runs passes until d has passed.
func (it *interleaved) passesFor(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
		it.pass()
	}
}

// atLeast runs passes until every item has at least n repetitions and
// returns them.
func (it *interleaved) atLeast(n int) *reps {
	for len(it.p.order) < n*len(it.p.times) {
		it.pass()
	}
	return it.p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or
// the runtime's total mapped memory where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
				if err == nil {
					return kb * 1024 / 1e6
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / 1e6
}

// hostSteal returns the machine's steal time and its total processor
// time, in ticks, from /proc/stat: the time the host ran something else
// while this machine's processors were ready to run. A run with more
// steal reads slower; the share is printed with every run so that two
// runs can be told apart by it. Both are 0 where /proc/stat is missing.
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	// user, nice, system, idle, iowait, irq, softirq, steal; guest time
	// is already counted in user.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// goSnapshot is the Go runtime's cumulative GC and allocation counters.
type goSnapshot struct {
	gcCycles   uint64
	allocBytes uint64
	pauseNs    uint64
}

func readGo() goSnapshot {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(samples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return goSnapshot{
		gcCycles:   samples[0].Value.Uint64(),
		allocBytes: samples[1].Value.Uint64(),
		pauseNs:    ms.PauseTotalNs,
	}
}

// setGoLayer records the runtime deltas between two snapshots; inBytes is
// the workload's input volume over the same interval.
func (r *run) setGoLayer(before, after goSnapshot, inBytes int64) {
	r.set("go.gc_cycles", "count", float64(after.gcCycles-before.gcCycles))
	r.set("go.gc_pause_ms", "ms", float64(after.pauseNs-before.pauseNs)/1e6)
	alloc := float64(after.allocBytes - before.allocBytes)
	r.set("go.alloc_mb", "MB", alloc/1e6)
	per := 0.0
	if inBytes > 0 {
		per = alloc / float64(inBytes)
	}
	r.set("go.alloc_b_per_in_b", "B/B", per)
}
