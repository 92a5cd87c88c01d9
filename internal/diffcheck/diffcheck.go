// Package diffcheck is the differential cross-check harness behind
// xkdiff: it generates seeded workloads and runs every decision the
// system can make through all of its redundant implementations, reporting
// any disagreement. The lanes:
//
//	implication — the compiled implication kernel (xmlkey.Decider.ImpliesCT)
//	              against the retained recursive oracle (xmlkey.OracleImpliesCT);
//	cover       — Algorithm minimumCover against the exponential Algorithm
//	              naive on schemas small enough to enumerate;
//	server      — in-process engine verdicts against a live xkserve
//	              instance driven over real TCP (testing the wire round
//	              trip: Key.String/Parse, Rule.DSL/ParseString, FD
//	              Format/ParseFD as well as the handlers);
//	witness     — propagation verdicts against model-level evidence:
//	              positive verdicts must survive a randomized search for a
//	              conforming counterexample document, negative verdicts are
//	              probed for a confirming witness (one-sided: not finding
//	              one proves nothing);
//	closure     — the indexed linear-time attribute closure
//	              (rel.FDIndex, LINCLOSURE) against the retained textbook
//	              fixpoint oracle (rel.Closure), bit-for-bit, including the
//	              early-exit Implies variant;
//	shred       — the streaming data plane: the streaming evaluator against
//	              the tree evaluator (bit-identical instances), the online
//	              FD guard against rel.CheckFD, and the paper's guarantee
//	              itself — whenever the stream validator accepts a
//	              document, every FD of the propagated minimum cover must
//	              hold on the shredded instance (one-sided: a rejected
//	              document proves nothing; a confirmed counterexample is a
//	              propagation soundness bug);
//	tokenizer   — the zero-copy XML tokenizer (xmltok fast source) against
//	              the retained encoding/xml adapter, token for token: kinds,
//	              byte offsets, name splits, interned label codes, unescaped
//	              attribute values and character data, over conforming,
//	              edge-construct and deliberately malformed documents (on
//	              rejection only the error class must agree).
//
// Every disagreement is shrunk to a (near-)minimal case — keys dropped,
// field rules pruned, paths shortened, re-checking after each step — and
// reported as a replayable, seed-pinned JSON artifact. The whole run is
// deterministic: equal (Config, code) means byte-identical reports.
package diffcheck

import (
	"context"
	"fmt"
	"math/rand"

	"xkprop/internal/metrics"
	"xkprop/internal/workload"
)

// LaneNames lists the lanes in their canonical (report) order.
var LaneNames = []string{"implication", "cover", "server", "witness", "closure", "shred", "tokenizer"}

// Config tunes one harness run.
type Config struct {
	// Seed pins the run; equal seeds replay byte-identically (default 1).
	Seed int64
	// Cases is the number of random cases per randomized lane (default 25).
	Cases int
	// Lanes selects a subset of LaneNames; nil/empty = all. A lane's case
	// stream depends only on (Seed, Cases), never on which other lanes run.
	Lanes []string
	// Grid is the deterministic workload grid the cover, server, shred
	// and tokenizer lanes sweep in addition to their random cases;
	// nil = DefaultGrid.
	Grid []workload.Config
	// MaxShrinkSteps bounds the re-checks each shrink spends (default 400).
	MaxShrinkSteps int
	// Metrics, when non-nil, receives the harness counters
	// (diff.cases.<lane>, diff.disagreements, diff.shrink_steps).
	Metrics *metrics.Set
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Cases <= 0 {
		c.Cases = 25
	}
	if len(c.Lanes) == 0 {
		c.Lanes = LaneNames
	}
	if c.Grid == nil {
		c.Grid = DefaultGrid()
	}
	if c.MaxShrinkSteps <= 0 {
		c.MaxShrinkSteps = 400
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewSet()
	}
	return c
}

// DefaultGrid is the small deterministic workload grid: schemas narrow
// enough for Algorithm naive, deep and bushy enough to exercise the keyed
// ancestor walk and transitive-key merging.
func DefaultGrid() []workload.Config {
	return []workload.Config{
		{Fields: 4, Depth: 2, Keys: 4},
		{Fields: 6, Depth: 2, Keys: 4},
		{Fields: 6, Depth: 3, Keys: 6},
		{Fields: 8, Depth: 2, Keys: 8},
		{Fields: 8, Depth: 4, Keys: 6},
		{Fields: 8, Depth: 2, Keys: 6, Width: 2},
	}
}

// Report is the run's result. It contains no wall-clock data, so a report
// is a pure function of (Config, code) — the property replays rely on.
type Report struct {
	Seed          int64        `json:"seed"`
	Cases         int          `json:"cases"`
	Disagreements int          `json:"disagreements"`
	Lanes         []LaneReport `json:"lanes"`
}

// LaneReport summarizes one lane.
type LaneReport struct {
	Lane  string `json:"lane"`
	Cases int    `json:"cases"`
	// Confirmed counts negative propagation verdicts the witness lane
	// backed with a concrete counterexample document (witness lane only).
	Confirmed     int            `json:"confirmed,omitempty"`
	Disagreements []Disagreement `json:"disagreements,omitempty"`
}

// Disagreement is one shrunk, replayable failing case: the (Σ, σ, ψ)
// triple in source-text form, plus what each side said.
type Disagreement struct {
	Lane string `json:"lane"`
	// Keys is Σ, one parseable key per entry.
	Keys []string `json:"keys"`
	// Transform is σ's rule in DSL form (FD lanes only).
	Transform string `json:"transform,omitempty"`
	// FD is ψ in "a, b -> c" form (FD lanes only).
	FD string `json:"fd,omitempty"`
	// FDs is the relational FD workload over attribute positions
	// ("[0 1] -> [2]" per entry; closure lane only).
	FDs []string `json:"fds,omitempty"`
	// Key is φ for the implication lanes, in key-syntax form.
	Key    string `json:"key,omitempty"`
	Got    string `json:"got"`
	Want   string `json:"want"`
	Detail string `json:"detail,omitempty"`
}

// harness carries one run's state.
type harness struct {
	cfg Config
}

// Run executes the configured lanes. It aborts with ctx's error as soon as
// the context is cancelled or an attached budget is exhausted — a partial
// report is never returned as if complete. A non-nil report with
// Disagreements > 0 is a finding, not an error.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	for _, l := range cfg.Lanes {
		if !laneKnown(l) {
			return nil, fmt.Errorf("diffcheck: unknown lane %q (want one of %v)", l, LaneNames)
		}
	}
	h := &harness{cfg: cfg}
	rep := &Report{Seed: cfg.Seed}
	for i, name := range LaneNames {
		if !laneSelected(cfg.Lanes, name) {
			continue
		}
		// Per-lane generator: seeded by (Seed, lane slot), so a lane's
		// case stream is identical whether it runs alone or with others.
		// A lane's slot is its index, except that slot 2 belonged to a
		// removed lane and stays unused: the lanes after it keep the case
		// streams their seeds have always replayed.
		slot := int64(i)
		if i >= 2 {
			slot++
		}
		rng := rand.New(rand.NewSource(cfg.Seed + slot*1_000_003))
		var lr LaneReport
		var err error
		switch name {
		case "implication":
			lr, err = h.laneImplication(ctx, rng)
		case "cover":
			lr, err = h.laneCover(ctx, rng)
		case "server":
			lr, err = h.laneServer(ctx, rng)
		case "witness":
			lr, err = h.laneWitness(ctx, rng)
		case "closure":
			lr, err = h.laneClosure(ctx, rng)
		case "shred":
			lr, err = h.laneShred(ctx, rng)
		case "tokenizer":
			lr, err = h.laneTokenizer(ctx, rng)
		}
		if err != nil {
			return nil, err
		}
		rep.Lanes = append(rep.Lanes, lr)
		rep.Cases += lr.Cases
		rep.Disagreements += len(lr.Disagreements)
	}
	return rep, nil
}

func laneKnown(name string) bool {
	for _, l := range LaneNames {
		if l == name {
			return true
		}
	}
	return false
}

func laneSelected(lanes []string, name string) bool {
	for _, l := range lanes {
		if l == name {
			return true
		}
	}
	return false
}

// countCase bumps the per-lane case counter.
func (h *harness) countCase(lane string) {
	h.cfg.Metrics.Counter("diff.cases." + lane).Add(1)
}

// countDisagreement bumps the global disagreement counter.
func (h *harness) countDisagreement() {
	h.cfg.Metrics.Counter("diff.disagreements").Add(1)
}

// checkCtx is the shared cancellation point between cases.
func checkCtx(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
