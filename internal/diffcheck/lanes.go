package diffcheck

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"xkprop/internal/core"
	"xkprop/internal/rel"
	"xkprop/internal/witness"
	"xkprop/internal/workload"
	"xkprop/internal/xmlkey"
)

// laneImplication cross-checks the compiled implication kernel against
// the retained recursive oracle on random (Σ, φ) cases.
func (h *harness) laneImplication(ctx context.Context, rng *rand.Rand) (LaneReport, error) {
	lr := LaneReport{Lane: "implication"}
	n := h.cfg.Cases * 4 // the cheapest lane: spend more cases here
	for i := 0; i < n; i++ {
		if err := checkCtx(ctx); err != nil {
			return lr, err
		}
		c := randImplCase(rng)
		got, err := deciderVerdict(ctx, c)
		if err != nil {
			return lr, err
		}
		want := oracleVerdict(c)
		lr.Cases++
		h.countCase(lr.Lane)
		if got == want {
			continue
		}
		bad := func(n implCase) bool {
			g, err := deciderVerdict(ctx, n)
			return err == nil && g != oracleVerdict(n)
		}
		c, steps := shrinkImpl(c, bad, h.cfg.MaxShrinkSteps)
		h.cfg.Metrics.Counter("diff.shrink_steps").Add(int64(steps))
		got, _ = deciderVerdict(ctx, c)
		lr.Disagreements = append(lr.Disagreements, Disagreement{
			Lane: lr.Lane,
			Keys: keyStrings(c.sigma),
			Key:  c.phi.String(),
			Got:  fmt.Sprintf("decider: implied=%v", got),
			Want: fmt.Sprintf("oracle: implied=%v", !got),
		})
		h.countDisagreement()
	}
	return lr, nil
}

func deciderVerdict(ctx context.Context, c implCase) (bool, error) {
	dec := xmlkey.NewDecider(c.sigma)
	return dec.ImpliesCTCtx(ctx, c.phi.Context, c.phi.Target, c.phi.Attrs)
}

func oracleVerdict(c implCase) bool {
	return xmlkey.OracleImpliesCT(c.sigma, c.phi.Context, c.phi.Target, c.phi.Attrs)
}

// laneCover cross-checks Algorithm minimumCover against the exponential
// Algorithm naive on the deterministic grid plus random workloads; the
// two must compute equivalent covers.
func (h *harness) laneCover(ctx context.Context, rng *rand.Rand) (LaneReport, error) {
	lr := LaneReport{Lane: "cover"}
	cases := h.coverCases(rng, h.cfg.Cases)
	for _, c := range cases {
		if err := checkCtx(ctx); err != nil {
			return lr, err
		}
		eq, err := coversAgree(ctx, c)
		if err != nil {
			return lr, err
		}
		lr.Cases++
		h.countCase(lr.Lane)
		if eq {
			continue
		}
		bad := func(n coverCase) bool {
			eq, err := coversAgree(ctx, n)
			return err == nil && !eq
		}
		c, steps := shrinkCoverCase(c, bad, h.cfg.MaxShrinkSteps)
		h.cfg.Metrics.Counter("diff.shrink_steps").Add(int64(steps))
		d := Disagreement{
			Lane:      lr.Lane,
			Keys:      keyStrings(c.sigma),
			Transform: c.rule.DSL(),
		}
		eng := core.NewEngine(c.sigma, c.rule)
		if min, err := eng.MinimumCoverCtx(ctx); err == nil {
			d.Got = "minimumCover: " + strings.Join(eng.CoverAsStrings(min), "; ")
		}
		if naive, err := eng.NaiveCoverCtx(ctx); err == nil {
			d.Want = "naive: " + strings.Join(eng.CoverAsStrings(naive), "; ")
		}
		lr.Disagreements = append(lr.Disagreements, d)
		h.countDisagreement()
	}
	return lr, nil
}

// coverCases builds the lane's case list: grid workloads first, then
// random ones (whose schemas are always narrow enough for naive).
func (h *harness) coverCases(rng *rand.Rand, nRandom int) []coverCase {
	var out []coverCase
	for _, cfg := range h.cfg.Grid {
		w := workload.Generate(cfg)
		out = append(out, coverCase{sigma: w.Sigma, rule: w.Rule})
	}
	for i := 0; i < nRandom; i++ {
		sigma, rule := witness.RandomWorkload(rng)
		out = append(out, coverCase{sigma: sigma, rule: rule})
	}
	return out
}

func coversAgree(ctx context.Context, c coverCase) (bool, error) {
	eng := core.NewEngine(c.sigma, c.rule)
	min, err := eng.MinimumCoverCtx(ctx)
	if err != nil {
		return false, err
	}
	naive, err := eng.NaiveCoverCtx(ctx)
	if err != nil {
		return false, err
	}
	return rel.EquivalentCovers(min, naive), nil
}

// laneWitness probes propagation verdicts against model-level evidence: a
// positive verdict must survive a randomized search for a Σ-conforming
// document whose instance violates ψ (Algorithm propagation is sound, so
// any hit is a bug); a negative verdict is confirmed when the search
// finds such a document and inconclusive otherwise — the lane is
// one-sided on negatives.
func (h *harness) laneWitness(ctx context.Context, rng *rand.Rand) (LaneReport, error) {
	lr := LaneReport{Lane: "witness"}
	for i := 0; i < h.cfg.Cases; i++ {
		if err := checkCtx(ctx); err != nil {
			return lr, err
		}
		sigma, rule := witness.RandomWorkload(rng)
		nf := rule.Schema.Len()
		fds := []rel.FD{
			rel.NewFD(rel.AttrSet{}.With(0), rel.AttrSet{}.With(nf-1)),
			randFD(rng, rule.Schema),
		}
		searchSeed := rng.Int63()
		eng := core.NewEngine(sigma, rule)
		for _, fd := range fds {
			verdict, err := eng.PropagatesCtx(ctx, fd)
			if err != nil {
				return lr, err
			}
			lr.Cases++
			h.countCase(lr.Lane)
			search := func(c fdCase) (string, bool) {
				doc, _, found := witness.FDCounterexample(c.sigma, c.rule, c.fd, witness.Options{
					MaxTries: 300,
					Rand:     rand.New(rand.NewSource(searchSeed)),
				})
				if !found {
					return "", false
				}
				return doc.XMLString(), true
			}
			c := fdCase{sigma: sigma, rule: rule, fd: fd}
			xml, found := search(c)
			if !verdict {
				if found {
					lr.Confirmed++
				}
				continue
			}
			if !found {
				continue
			}
			// A conforming document violates a "propagated" FD: soundness
			// bug. Shrink while both the verdict and the witness persist.
			bad := func(n fdCase) bool {
				ok, err := core.NewEngine(n.sigma, n.rule).PropagatesCtx(ctx, n.fd)
				if err != nil || !ok {
					return false
				}
				_, refuted := search(n)
				return refuted
			}
			c, steps := shrinkFDCase(c, bad, h.cfg.MaxShrinkSteps)
			h.cfg.Metrics.Counter("diff.shrink_steps").Add(int64(steps))
			if x, ok := search(c); ok {
				xml = x
			}
			lr.Disagreements = append(lr.Disagreements, Disagreement{
				Lane:      lr.Lane,
				Keys:      keyStrings(c.sigma),
				Transform: c.rule.DSL(),
				FD:        c.fd.Format(c.rule.Schema),
				Got:       "propagation: propagated=true",
				Want:      "witness: found a conforming document violating the FD",
				Detail:    xml,
			})
			h.countDisagreement()
		}
	}
	return lr, nil
}
