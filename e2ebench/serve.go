package main

// The serve workload: an in-process xkserve (server.New with the Config
// xkserve's default flags produce) on a loopback listener, driven open
// loop on a seeded Poisson schedule from one process through
// internal/client with MaxAttempts 1 and no hedging, over at most nproc
// connections. Every request is timed from its due time, so a stalled
// generator shows up as latency and as gen.late_p99_ms, never as a fast
// server. Every response is compared with the in-process answer to the
// same request after the clock stops.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xkprop/internal/budget"
	"xkprop/internal/client"
	"xkprop/internal/core"
	"xkprop/internal/rel"
	"xkprop/internal/server"
	"xkprop/internal/shred"
	"xkprop/internal/stream"
	"xkprop/internal/transform"
	"xkprop/internal/workload"
	"xkprop/internal/xmlkey"
)

// latencyLimit is the p99 a ladder rung must stay under. The host of the
// 2-CPU development machine stalls the process for 50 to 90 ms several
// times a minute when it takes much of the processors' time away (steal),
// so a limit of 50 ms ended the climb wherever a stall fell, down to the
// first rung; 100 ms lets a rung fail on overload, which leaves a backlog
// that grows for the whole rung.
const latencyLimit = 100 * time.Millisecond

// baseRate is the rate at which serve.p50_ms and serve.p99_ms are
// measured, in requests/s: well below capacity, so that they describe an
// unsaturated server. serve.p99_ms is a per-layer metric of the traced
// run; the untraced run prints it beside serve.p50_ms.
const baseRate = 400

// ladder is the fixed rate ladder for serve.max_rps, in requests/s: from
// 1800 req/s, about two thirds of the capacity on the 2-CPU development
// machine, to about 6000 req/s in steps of 5%. A rung passes when every
// request is answered, its p99 stays under latencyLimit and no backlog is
// left growing. The climber (below) turns the rungs' verdicts into
// serve.max_rps.
var ladder = func() []float64 {
	var out []float64
	for r := 1800.0; r < 6100; r *= 1.05 {
		out = append(out, math.Round(r/10)*10)
	}
	return out
}()

// endpoints in reporting order.
var endpoints = []string{"cover", "propagate", "candidates", "ddl", "validate", "shred"}

// xkserveConfig is the server.Config that xkserve's default flags produce.
func xkserveConfig() server.Config {
	return server.Config{
		RequestTimeout:   10 * time.Second,
		MaxTimeout:       time.Minute,
		MaxInFlight:      256,
		BreakerThreshold: 10,
		BreakerCooldown:  time.Second,
		Budget: budget.Budget{
			MaxQueueDepth:      512,
			MaxMemoEntries:     1 << 20,
			MaxInternEntries:   1 << 20,
			MaxStreamDepth:     10_000,
			MaxViolations:      10_000,
			MaxCandidateKeys:   100_000,
			MaxRegistryEntries: 128,
			MaxTuples:          1_000_000,
			MaxFDIndexEntries:  1_000_000,
		},
	}
}

// request is one distinct request body. Warm templates are sent many
// times; every cold request is its own template, on a schema no other
// request uses, so it misses the registry.
type request struct {
	ep                    string
	keys, transform, rule string
	fd, document          string
	cold                  *schema // the cold schema, for the design path
	body                  []byte
}

func (q *request) marshal() {
	m := map[string]any{"keys": q.keys}
	if q.transform != "" {
		m["transform"] = q.transform
	}
	if q.rule != "" {
		m["rule"] = q.rule
	}
	if q.fd != "" {
		m["fd"] = q.fd
	}
	if q.document != "" {
		m["document"] = q.document
	}
	q.body, _ = json.Marshal(m)
}

// serveMix is the traffic: warm templates per endpoint, and a generator
// of cold requests.
type serveMix struct {
	warm map[string][]*request
	docs []doc // the documents behind the validate and shred templates
}

// mixWeights are the endpoint shares; "cold" is /v1/cover or /v1/ddl,
// half each, on a fresh schema. No recorded xkserve traffic exists, so the
// mix is an assumption, the plainest one the workload's classes allow:
// the five warm and document endpoints take equal shares, and the cold
// requests the small share that keeps registry misses rare.
var mixWeights = []struct {
	ep string
	w  float64
}{
	{"cover", 0.19}, {"propagate", 0.19}, {"candidates", 0.19},
	{"validate", 0.19}, {"shred", 0.19}, {"cold", 0.05},
}

func newServeMix(rng *rand.Rand) *serveMix {
	m := &serveMix{warm: map[string][]*request{}}
	add := func(q *request) {
		q.marshal()
		m.warm[q.ep] = append(m.warm[q.ep], q)
	}
	bibK, bibR := bibSchema("")
	type warmSchema struct {
		keys, dsl, rule, probeTrue, probeFalse string
	}
	schemas := []warmSchema{{bibK, bibR, "article", bibProbeTrue, bibProbeFalse}}
	for _, cfg := range []workload.Config{{Fields: 15, Depth: 3, Keys: 6}, {Fields: 20, Depth: 5, Keys: 10}} {
		s := workloadSchema(workload.Generate(cfg))
		schemas = append(schemas, warmSchema{s.keys, s.dsl, s.probeRule, s.probeTrue, s.probeFalse})
	}
	for _, s := range schemas {
		add(&request{ep: "cover", keys: s.keys, transform: s.dsl, rule: s.rule})
		add(&request{ep: "propagate", keys: s.keys, transform: s.dsl, rule: s.rule, fd: s.probeTrue})
		add(&request{ep: "propagate", keys: s.keys, transform: s.dsl, rule: s.rule, fd: s.probeFalse})
		add(&request{ep: "candidates", keys: s.keys, transform: s.dsl, rule: s.rule})
	}
	add(&request{ep: "cover", keys: bibK, transform: bibR, rule: "author"})
	for i := 0; i < 12; i++ {
		d := bibDoc(rng, fmt.Sprintf("q%d", i), 1+i%8, 6)
		m.docs = append(m.docs, d)
		add(&request{ep: "validate", keys: bibK, document: string(d.xml)})
		add(&request{ep: "shred", keys: bibK, transform: bibR, document: string(d.xml)})
	}
	return m
}

// next draws one request; a cold request's schema takes suffix as its
// label suffix.
func (m *serveMix) next(rng *rand.Rand, suffix string) *request {
	u := rng.Float64()
	for _, mw := range mixWeights {
		if u -= mw.w; u >= 0 {
			continue
		}
		if mw.ep != "cold" {
			ts := m.warm[mw.ep]
			return ts[rng.Intn(len(ts))]
		}
		break
	}
	keys, rules := bibSchema(suffix)
	q := &request{ep: "cover", keys: keys, transform: rules, rule: "article",
		cold: &schema{name: "bib" + suffix, keys: keys, dsl: rules, probeRule: "article",
			probeTrue: bibProbeTrue, probeFalse: bibProbeFalse}}
	if rng.Intn(2) == 0 {
		q.ep = "ddl"
	}
	q.marshal()
	return q
}

// rungSchedule is the schedule of the climb's attempt k at rate, from an
// RNG of its own, so that a run's inputs do not depend on how its climb
// went.
func (m *serveMix) rungSchedule(seed int64, k int, rate float64, d time.Duration) []*sample {
	rng := rand.New(rand.NewSource(seed*100 + int64(k)))
	return m.schedule(rng, fmt.Sprintf("a%d", k), rate, d)
}

// schedule draws Poisson arrivals at rate for d from rng. The cold
// requests' label suffixes start with tag, which no other schedule uses,
// so their schemas miss the registry.
func (m *serveMix) schedule(rng *rand.Rand, tag string, rate float64, d time.Duration) []*sample {
	var out []*sample
	var t float64
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return out
		}
		out = append(out, &sample{req: m.next(rng, fmt.Sprintf("%sc%d", tag, len(out))), due: due})
	}
}

// sample is one scheduled request and what happened to it. Times are
// offsets from the phase's start: due is the schedule's, released is when
// the dispatcher handed the request to the senders, sent when a sender
// took it up, done when its response had arrived.
type sample struct {
	req                       *request
	due, released, sent, done time.Duration
	id                        int64     // request ID (traced runs)
	hStart                    time.Time // server-side ServeHTTP interval (traced runs)
	hEnd                      time.Time
	resp                      map[string]any // nil once compared with its template's first response
	same                      bool           // resp equalled the template's first response
	err                       error
}

func (s *sample) handler() time.Duration { return s.hEnd.Sub(s.hStart) }

func (s *sample) latency() time.Duration { return s.done - s.due }

// live is a running in-process server with its client.
type live struct {
	srv     *server.Server
	hs      *http.Server
	ln      net.Listener
	cli     *client.Client
	base    string
	served  chan error
	handled sync.WaitGroup // handler-timing wrappers in flight
	traced  bool
	mu      sync.Mutex
	times   map[int64][2]time.Time // request ID → ServeHTTP start and end
	ids     atomic.Int64
	stopped sync.Once
	stopErr error
	// first holds each warm template's first response. Later responses
	// are compared with it as they arrive and dropped, so the benchmark
	// does not hold every response in memory; the first one is checked
	// against the in-process answer after the run.
	firstMu sync.Mutex
	first   map[*request]map[string]any
}

type reqIDKey struct{}

// idTransport stamps each request with its ID from the context, so the
// server-side timing wrapper can pair handler time with the client's view.
type idTransport struct{ rt http.RoundTripper }

func (t idTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(reqIDKey{}).(int64); ok {
		req = req.Clone(req.Context())
		req.Header.Set("X-Bench-Id", strconv.FormatInt(id, 10))
	}
	return t.rt.RoundTrip(req)
}

func startLive(traced bool) (*live, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lv := &live{srv: server.New(xkserveConfig()), ln: ln, base: "http://" + ln.Addr().String(),
		served: make(chan error, 1), traced: traced, times: map[int64][2]time.Time{},
		first: map[*request]map[string]any{}}
	h := lv.srv.Handler()
	if traced {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			lv.handled.Add(1)
			defer lv.handled.Done()
			t0 := time.Now()
			inner.ServeHTTP(w, req)
			t1 := time.Now()
			if id, err := strconv.ParseInt(req.Header.Get("X-Bench-Id"), 10, 64); err == nil {
				lv.mu.Lock()
				lv.times[id] = [2]time.Time{t0, t1}
				lv.mu.Unlock()
			}
		})
	}
	lv.hs = &http.Server{Handler: h}
	go func() { lv.served <- lv.hs.Serve(ln) }()
	n := runtime.NumCPU()
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
	if traced {
		rt = idTransport{rt}
	}
	lv.cli = client.New(client.Config{Base: lv.base, HTTP: &http.Client{Transport: rt}, MaxAttempts: 1})
	return lv, nil
}

// stop shuts the server down and waits for its Serve goroutine. Calls
// after the first return the first call's error.
func (lv *live) stop() error {
	lv.stopped.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		lv.stopErr = lv.hs.Shutdown(ctx)
		lv.cli.CloseIdle()
		if serr := <-lv.served; !errors.Is(serr, http.ErrServerClosed) && lv.stopErr == nil {
			lv.stopErr = serr
		}
	})
	return lv.stopErr
}

// debugVars fetches the server's /debug/vars.
func (lv *live) debugVars() (map[string]any, error) {
	resp, err := http.Get(lv.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]any{}
	return out, json.NewDecoder(resp.Body).Decode(&out)
}

// phase is the outcome of driving one schedule.
type phase struct {
	start      time.Time
	samples    []*sample
	backlogMax int
	backlogEnd int
}

// drive sends the schedule open loop: one dispatcher (this goroutine)
// releases each request at its due time to nproc senders; requests due
// while every sender is busy wait in the backlog, and their wait counts
// in their latency.
func (lv *live) drive(samples []*sample) phase {
	n := runtime.NumCPU()
	work := make(chan *sample, len(samples)) // sized to the schedule: the dispatcher never blocks
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				s.sent = time.Since(start)
				ctx := context.Background()
				if lv.traced {
					s.id = lv.ids.Add(1)
					ctx = context.WithValue(ctx, reqIDKey{}, s.id)
				}
				s.resp, s.err = lv.cli.Post(ctx, "/v1/"+s.req.ep, json.RawMessage(s.req.body))
				s.done = time.Since(start)
				lv.dedupResponse(s)
			}
		}()
	}
	ph := phase{start: start, samples: samples}
	for _, s := range samples {
		if d := s.due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		s.released = time.Since(start)
		work <- s
		ph.backlogMax = max(ph.backlogMax, len(work))
	}
	ph.backlogEnd = len(work)
	close(work)
	wg.Wait()
	if lv.traced {
		lv.handled.Wait()
		lv.mu.Lock()
		for _, s := range samples {
			t := lv.times[s.id]
			s.hStart, s.hEnd = t[0], t[1]
		}
		lv.mu.Unlock()
	}
	return ph
}

// dedupResponse replaces a warm response that repeats its template's
// first response by a flag, after the request's latency is taken.
func (lv *live) dedupResponse(s *sample) {
	if s.err != nil || s.req.cold != nil {
		return
	}
	lv.firstMu.Lock()
	f, ok := lv.first[s.req]
	if !ok {
		lv.first[s.req] = s.resp
	}
	lv.firstMu.Unlock()
	if ok {
		s.same = reflect.DeepEqual(f, s.resp)
		s.resp = nil
	}
}

func latencies(samples []*sample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		out = append(out, ms(s.latency()))
	}
	return out
}

// steady returns the samples of the half of the phases' windows, by due
// time, in which the dispatcher released its requests least late; the
// base rate's latency percentiles are taken over them. The dispatcher
// does nothing but sleep until a request is due and hand it to the
// senders, so it runs late when the process or the machine stalls, not
// when the server is slow: a request that waits behind a slow response
// waits after its release, in the senders' backlog, and that wait counts
// in its latency but not in the ranking. Slow responses are spread over
// the windows by the schedule, so each kept window holds its share of
// them.
func steady(phs []phase, window time.Duration) []*sample {
	var groups [][]*sample
	for _, ph := range phs {
		first := len(groups)
		for _, s := range ph.samples {
			k := first + int(s.due/window)
			for len(groups) <= k {
				groups = append(groups, nil)
			}
			groups[k] = append(groups[k], s)
		}
	}
	sort.SliceStable(groups, func(i, j int) bool { return lateP99(groups[i]) < lateP99(groups[j]) })
	var out []*sample
	for _, g := range groups[:(len(groups)+1)/2] {
		out = append(out, g...)
	}
	return out
}

// passes reports whether a phase met the latency limit over all its
// requests, with every request answered and no more requests waiting for a
// sender at its last due time than arrive within the limit: a queue that
// grew over the phase holds more.
func (ph phase) passes(rate float64) bool {
	for _, s := range ph.samples {
		if s.err != nil {
			return false
		}
	}
	return quantile(latencies(ph.samples), 0.99) <= ms(latencyLimit) && ph.backlogEnd <= int(rate*latencyLimit.Seconds())
}

// baseBlocks is how many blocks the base rate's schedule is sent in; the
// ladder's rungs run between them, so that the base rate samples the whole
// run and a slow spell of the machine falls on a few of its windows.
const baseBlocks = 5

// setupRepeatsServe is how many times the serve set-up (start a server,
// warm its templates) is repeated before the run, and setupsPerBlock how
// many times after each base block (see setupRepeats); fewer than the
// others because each one starts a server.
const (
	setupRepeatsServe = 5
	setupsPerBlock    = 2
)

// startWarm starts a server and posts every warm template once: the serve
// workload's set-up.
func startWarm(ctx context.Context, mix *serveMix, traced bool) (*live, error) {
	lv, err := startLive(traced)
	if err != nil {
		return nil, err
	}
	for _, ep := range endpoints {
		for _, q := range mix.warm[ep] {
			if _, err := lv.cli.Post(ctx, "/v1/"+ep, json.RawMessage(q.body)); err != nil {
				lv.stop()
				return nil, fmt.Errorf("warming %s: %w", ep, err)
			}
		}
	}
	return lv, nil
}

func runServe(r *run) error {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(r.seed))
	mix := newServeMix(rng)
	// The untraced run spends a third of its time at the base rate, in
	// baseBlocks blocks, and climbs the ladder in attempts of 1/20 of it,
	// two after each block and the rest after the last. After each block
	// it also shreds the documents behind the shred requests for 1/100 of
	// the time, takes every cold schema through the cold design path once,
	// for load.* and design.*, and repeats the set-up. On the development
	// machine the climb took 15 to 18 attempts, and a run about 1.3 times
	// its time. The traced run spends all of its time at the base rate,
	// half untraced and half traced.
	var blocks [][]*sample
	if r.tr == nil {
		for i := 0; i < baseBlocks; i++ {
			blocks = append(blocks, mix.schedule(rng, fmt.Sprintf("b%d", i), baseRate, r.seconds/3/baseBlocks))
		}
	} else {
		blocks = append(blocks, mix.schedule(rng, "b", baseRate, r.seconds))
	}

	// Set-up, repeated; the last server serves the run.
	var setups []float64
	setUp := func() (*live, error) {
		t0 := time.Now()
		lv, err := startWarm(ctx, mix, r.tr != nil)
		setups = append(setups, time.Since(t0).Seconds())
		return lv, err
	}
	var lv *live
	for i := 0; i < setupRepeatsServe; i++ {
		if lv != nil {
			if err := lv.stop(); err != nil {
				return err
			}
		}
		var err error
		if lv, err = setUp(); err != nil {
			return err
		}
	}
	defer lv.stop()

	if r.tr != nil {
		return r.serveLayers(ctx, lv, mix, blocks[0])
	}

	docs, err := r.serveDocs(mix)
	if err != nil {
		return err
	}
	small := r.smallShreds(docs)
	var cold []*schema
	for _, b := range blocks {
		for _, s := range b {
			if s.req.cold != nil {
				cold = append(cold, s.req.cold)
			}
		}
	}
	design := r.coldDesigns(ctx, cold)
	c := newClimber(r, ctx, lv, mix)
	var phs []phase
	var base []*sample
	backlogMax := 0
	for _, b := range blocks {
		ph := lv.drive(b)
		phs = append(phs, ph)
		base = append(base, b...)
		backlogMax = max(backlogMax, ph.backlogMax)
		small.passesFor(r.seconds / 100)
		design.pass()
		for k := 0; k < setupsPerBlock; k++ {
			extra, err := setUp()
			if err != nil {
				return err
			}
			if err := extra.stop(); err != nil {
				return err
			}
		}
		for k := 0; k < 2 && c.step(); k++ {
		}
	}
	for c.step() {
	}
	if err := lv.stop(); err != nil {
		return err
	}
	all := latencies(base)
	kept := steady(phs, time.Second)
	lat := latencies(kept)
	fmt.Fprintf(r.out, "base %d req/s, all windows: %d samples, p50 %.3f ms, p99 %.3f ms, gen.late_p99 %.3f ms, backlog max %d\n",
		baseRate, len(all), median(all), quantile(all, 0.99), lateP99(base), backlogMax)
	fmt.Fprintf(r.out, "base %d req/s, steady windows: %d samples (%d beyond p99), p50 %.3f ms, p99 %.3f ms, gen.late_p99 %.3f ms\n",
		baseRate, len(lat), len(lat)/100, median(lat), quantile(lat, 0.99), lateP99(kept))
	r.set("setup_s", "s", median(setups))
	r.set("serve.p50_ms", "ms", median(lat))
	r.set("serve.max_rps", "req/s", c.maxRPS())
	r.checkSamples(ctx, base, nil)
	r.setDesign(design.atLeast(1))
	r.setLoad(docs, small.atLeast(3))
	r.set("peak_rss_mb", "MB", peakRSSMB())
	return nil
}

// staircaseAttempts is the length of the climber's staircase.
const staircaseAttempts = 10

// climber finds serve.max_rps on the ladder, one attempt at a time. It
// climbs two rungs at a time from the bottom until an attempt fails, then
// runs a staircase of staircaseAttempts attempts from the rung below the
// failed one: one rung up after a pass, one rung down after a failure.
// The staircase settles around the rate at which a rung passes half of
// the time, and serve.max_rps is the median rate of its passed attempts.
// The highest rung ever passed would be the maximum of noisy verdicts: on
// the development machine three climbs in a row in one process, each
// ending at the first rung that failed twice, ended 2660 to 3390 req/s
// apart. With no staircase attempt passed it is the highest rung the
// ascent passed, or baseRate.
// The requests of a failed attempt are not checked or counted; overload
// there is the point.
type climber struct {
	r         *run
	ctx       context.Context
	lv        *live
	mix       *serveMix
	rung      int  // the rung of the next attempt
	k         int  // attempts so far
	stairs    bool // the staircase has begun
	left      int  // staircase attempts left
	ascentMax float64
	passed    []float64 // rates of the staircase's passed attempts
}

func newClimber(r *run, ctx context.Context, lv *live, mix *serveMix) *climber {
	return &climber{r: r, ctx: ctx, lv: lv, mix: mix, left: staircaseAttempts}
}

// step runs the next attempt and reports whether it ran; once the
// staircase is over it runs nothing.
func (c *climber) step() bool {
	if c.left == 0 {
		return false
	}
	rate := ladder[c.rung]
	sched := c.mix.rungSchedule(c.r.seed, c.k, rate, c.r.seconds/20)
	c.k++
	rp := c.lv.drive(sched)
	passed := rp.passes(rate)
	phase := "ascent"
	if c.stairs {
		phase = "stairs"
	}
	fmt.Fprintf(c.r.out, "ladder %6.0f req/s, %s: %5d requests, p99 %.3f ms, backlog end %d: %v\n",
		rate, phase, len(sched), quantile(latencies(sched), 0.99), rp.backlogEnd, passed)
	if passed {
		c.r.checkSamples(c.ctx, sched, nil)
	}
	switch {
	case !c.stairs && passed:
		c.ascentMax = rate
		if c.rung == len(ladder)-1 {
			c.stairs = true // the top passed: the staircase starts there
		}
		c.rung = min(c.rung+2, len(ladder)-1)
	case !c.stairs:
		c.stairs = true
		c.rung = max(c.rung-1, 0)
	default:
		c.left--
		if passed {
			c.passed = append(c.passed, rate)
			c.rung = min(c.rung+1, len(ladder)-1)
		} else {
			c.rung = max(c.rung-1, 0)
		}
	}
	return true
}

// maxRPS is the climb's result.
func (c *climber) maxRPS() float64 {
	switch {
	case len(c.passed) > 0:
		return median(c.passed)
	case c.ascentMax > 0:
		return c.ascentMax
	}
	return baseRate
}

// coldDesigns times the cold design path of the cold requests' schemas,
// for design.* on the serve workload.
func (r *run) coldDesigns(ctx context.Context, schemas []*schema) *interleaved {
	return newInterleaved(r.seed+2, len(schemas), func(i int) time.Duration {
		t0 := time.Now()
		_, err := coldDesign(ctx, schemas[i], nil, 0, nil)
		el := time.Since(t0)
		if err != nil {
			r.fail("design %s: %v", schemas[i].name, err)
		}
		return el
	})
}

// lateP99 is the p99 of how late the dispatcher released the samples.
func lateP99(samples []*sample) float64 {
	late := make([]float64, len(samples))
	for i, s := range samples {
		late[i] = ms(s.released - s.due)
	}
	return quantile(late, 0.99)
}

// serveDocs wraps the mix's documents for smallShreds and dataLayers, with
// the options of the server's /v1/shred: Σ, the covers, and tuples
// discarded after the checks.
func (r *run) serveDocs(mix *serveMix) ([]*loadDoc, error) {
	keys, rules := bibSchema("")
	l, err := newLoader(loadCtx(), keys, rules)
	if err != nil {
		return nil, err
	}
	l.discard = true
	r.checkCovers(l)
	var out []*loadDoc
	for _, d := range mix.docs {
		out = append(out, &loadDoc{doc: d, l: l})
	}
	return out, nil
}

// checkSamples compares every response with the in-process answer to the
// same request; a failed, refused or different response is a failure.
// Warm answers are computed once per template and kept in cache.
func (r *run) checkSamples(ctx context.Context, samples []*sample, cache map[*request]map[string]any) {
	if cache == nil {
		cache = map[*request]map[string]any{}
	}
	for _, s := range samples {
		r.attempted++
		if s.err != nil {
			r.fail("%s: %v", s.req.ep, s.err)
			continue
		}
		if s.resp == nil {
			if !s.same {
				r.fail("%s: response differs from the first response to the same request", s.req.ep)
			}
			continue
		}
		want, ok := cache[s.req]
		if !ok {
			var err error
			want, err = inProcess(ctx, s.req)
			if err != nil {
				r.fail("%s in-process: %v", s.req.ep, err)
				continue
			}
			cache[s.req] = want
		}
		if !reflect.DeepEqual(want, s.resp) {
			r.fail("%s: response differs from the in-process answer", s.req.ep)
		}
	}
}

// inProcess answers a request with the library directly, in the shape of
// the server's JSON payload. A cold request goes through the full cold
// design path.
func inProcess(ctx context.Context, q *request) (map[string]any, error) {
	var payload any
	var err error
	if q.cold != nil {
		payload, err = coldAnswer(ctx, q)
	} else {
		payload, err = warmAnswer(ctx, q)
	}
	if err != nil {
		return nil, err
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return nil, err
	}
	out := map[string]any{}
	return out, json.Unmarshal(raw, &out)
}

func coldAnswer(ctx context.Context, q *request) (any, error) {
	out, err := coldDesign(ctx, q.cold, nil, 0, nil)
	if err != nil {
		return nil, err
	}
	rule := out.tr.Rule(q.rule)
	cover := out.covers[q.rule]
	if q.ep == "cover" {
		eng := core.NewEngine(out.sigma, rule)
		return map[string]any{"relation": q.rule, "cover": eng.CoverAsStrings(cover), "size": len(cover)}, nil
	}
	return map[string]any{"relation": q.rule, "normalize": "bcnf",
		"fragments": len(out.frags[q.rule]), "ddl": out.ddl[q.rule]}, nil
}

func warmAnswer(ctx context.Context, q *request) (any, error) {
	sigma, err := xmlkey.ParseSet(strings.NewReader(q.keys))
	if err != nil {
		return nil, err
	}
	if q.ep == "validate" {
		v := stream.NewValidator(sigma)
		if err := v.RunCtx(ctx, strings.NewReader(q.document)); err != nil {
			return nil, err
		}
		return map[string]any{"ok": v.OK(), "count": len(v.Violations()), "violations": violationsJSON(v.Violations())}, nil
	}
	tr, err := transform.ParseString(q.transform)
	if err != nil {
		return nil, err
	}
	dec := xmlkey.NewDecider(sigma)
	if q.ep == "shred" {
		covers := map[string][]rel.FD{}
		for _, rule := range tr.Rules {
			if covers[rule.Schema.Name], err = core.NewEngineWithDecider(dec, rule).MinimumCoverCtx(ctx); err != nil {
				return nil, err
			}
		}
		res, err := shred.Run(ctx, tr, strings.NewReader(q.document), shred.Discard{}, shred.Options{Sigma: sigma, Covers: covers})
		if err != nil {
			return nil, err
		}
		fdvs := res.Violations
		if fdvs == nil {
			fdvs = []shred.FDViolation{}
		}
		return map[string]any{"ok": res.OK(), "accepted": res.Accepted(), "tuples": res.Tuples(),
			"tables": res.Tables, "key_violations": violationsJSON(res.StreamViolations), "fd_violations": fdvs}, nil
	}
	rule := tr.Rule(q.rule)
	if rule == nil {
		return nil, fmt.Errorf("no rule %q", q.rule)
	}
	eng := core.NewEngineWithDecider(dec, rule)
	sc := rule.Schema
	switch q.ep {
	case "cover":
		cover, err := eng.MinimumCoverCtx(ctx)
		if err != nil {
			return nil, err
		}
		return map[string]any{"relation": sc.Name, "cover": eng.CoverAsStrings(cover), "size": len(cover)}, nil
	case "propagate":
		fd, err := rel.ParseFD(sc, q.fd)
		if err != nil {
			return nil, err
		}
		ok, err := eng.PropagatesCtx(ctx, fd)
		if err != nil {
			return nil, err
		}
		return map[string]any{"propagated": ok, "relation": sc.Name, "fd": fd.Format(sc), "check": "propagation"}, nil
	case "candidates":
		keys, err := eng.CandidateKeysCtx(ctx, 0)
		if err != nil {
			return nil, err
		}
		names := make([][]string, len(keys))
		for i, k := range keys {
			names[i] = sc.Names(k)
		}
		return map[string]any{"relation": sc.Name, "candidates": names, "count": len(names)}, nil
	}
	return nil, fmt.Errorf("unknown endpoint %q", q.ep)
}

func violationsJSON(vs []stream.Violation) []map[string]any {
	out := make([]map[string]any, len(vs))
	for i, v := range vs {
		out[i] = map[string]any{"key": v.Key.String(), "message": v.String(), "offset": v.Offset}
	}
	return out
}

// serveLayers is the traced run of the serve workload: the base schedule
// split into an untraced and a traced half, then the per-layer metrics.
func (r *run) serveLayers(ctx context.Context, lv *live, mix *serveMix, base []*sample) error {
	mid := len(base) / 2
	firstHalf, secondHalf := base[:mid], base[mid:]
	half := firstHalf[len(firstHalf)-1].due
	for _, s := range secondHalf {
		s.due -= half
	}
	lv.traced = false
	plain := lv.drive(firstHalf)
	lv.traced = true

	vars0, err := lv.debugVars()
	if err != nil {
		return err
	}
	reg := lv.srv.Registry()
	h0, m0, c0 := reg.Hits(), reg.Misses(), reg.Compiles()
	g0 := readGo()
	ph := lv.drive(secondHalf)
	g1 := readGo()
	h1, m1, c1 := reg.Hits(), reg.Misses(), reg.Compiles()
	vars1, err := lv.debugVars()
	if err != nil {
		return err
	}
	var inBytes int64
	for _, s := range ph.samples {
		inBytes += int64(len(s.req.body))
	}
	r.setGoLayer(g0, g1, inBytes)
	r.set("trace.overhead_pct", "%", (median(latencies(ph.samples))/median(latencies(plain.samples))-1)*100)
	r.set("serve.p99_ms", "ms", quantile(latencies(steady([]phase{plain}, time.Second)), 0.99))

	hits, misses := float64(h1-h0), float64(m1-m0)
	r.set("registry.hits", "count", hits)
	r.set("registry.misses", "count", misses)
	r.set("registry.compiles", "count", float64(c1-c0))
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	r.set("registry.hit_ratio", "ratio", ratio)
	shed := func(v map[string]any) float64 { f, _ := v["aborts.busy"].(float64); return f }
	r.set("queue.shed", "count", shed(vars1)-shed(vars0))

	// Spans per request: from due time to completion, the client call
	// inside it, and the server's ServeHTTP inside that. The client call's
	// self time is the client and transport overhead.
	byEP := map[string][]float64{}
	for _, s := range ph.samples {
		if s.err != nil {
			continue
		}
		byEP[s.req.ep] = append(byEP[s.req.ep], ms(s.handler()))
		req := r.tr.record("request", -1, s.id, ph.start.Add(s.due), ph.start.Add(s.done))
		post := r.tr.record("client.post", req, s.id, ph.start.Add(s.sent), ph.start.Add(s.done))
		r.tr.record("server."+s.req.ep, post, s.id, s.hStart, s.hEnd)
	}
	lt := r.tr.times()
	overhead := 0.0
	if n := lt.count["client.post"]; n > 0 {
		overhead = ms(lt.self["client.post"]) / float64(n)
	}
	for _, ep := range endpoints {
		r.set("server."+ep+".p50_ms", "ms", median(byEP[ep]))
		r.set("server."+ep+".p99_ms", "ms", quantile(byEP[ep], 0.99))
	}
	r.set("client.overhead_ms", "ms", overhead)
	r.set("gen.late_p99_ms", "ms", lateP99(ph.samples))
	r.set("gen.backlog_max", "count", float64(ph.backlogMax))
	cache := map[*request]map[string]any{}
	r.checkSamples(ctx, plain.samples, cache)
	r.checkSamples(ctx, ph.samples, cache)

	docs, err := r.serveDocs(mix)
	if err != nil {
		return err
	}
	if err := r.dataLayers(loadCtx(), docs, "<dblp/>"); err != nil {
		return err
	}
	design := []schema{}
	for _, s := range ph.samples {
		if s.req.cold != nil && len(design) < 8 {
			design = append(design, *s.req.cold)
		}
	}
	r.designLayers(ctx, design)
	return nil
}

// setServeLayersIdle records the serving-layer metrics of a workload that
// bypasses the server: no requests, so every count and time is zero.
func (r *run) setServeLayersIdle() {
	for _, n := range []string{"registry.hits", "registry.misses", "registry.compiles", "queue.shed", "gen.backlog_max"} {
		r.set(n, "count", 0)
	}
	r.set("registry.hit_ratio", "ratio", 0)
	for _, ep := range endpoints {
		r.set("server."+ep+".p50_ms", "ms", 0)
		r.set("server."+ep+".p99_ms", "ms", 0)
	}
	r.set("client.overhead_ms", "ms", 0)
	r.set("gen.late_p99_ms", "ms", 0)
}
