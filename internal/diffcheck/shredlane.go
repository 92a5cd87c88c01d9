package diffcheck

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"xkprop/internal/core"
	"xkprop/internal/rel"
	"xkprop/internal/shred"
	"xkprop/internal/transform"
	"xkprop/internal/witness"
	"xkprop/internal/workload"
	"xkprop/internal/xmlkey"
	"xkprop/internal/xmltree"
)

// shredCase is one data-plane case: shred doc under (Σ, σ) with the
// propagated minimum cover enforced online.
type shredCase struct {
	sigma []xmlkey.Key
	rule  *transform.Rule
	doc   string
}

// laneShred cross-checks the streaming shredding data plane three ways on
// every case:
//
//  1. equality — the streaming evaluator's instance must match the tree
//     evaluator's exactly (same tuples, same null patterns);
//  2. guard — the online FD guard's per-FD verdict must agree with
//     rel.CheckFD over the tree-evaluated instance;
//  3. soundness — whenever the stream validator accepts the document,
//     every FD of the propagated minimum cover must hold on the instance.
//     This is the paper's propagation guarantee made executable: a
//     confirmed counterexample is a soundness bug in Algorithm
//     propagation, not a data problem. The check is one-sided — a
//     rejected document proves nothing and is skipped.
//
// Confirmed counts the accepted documents, i.e. the cases where the
// soundness implication was actually exercised rather than vacuous.
func (h *harness) laneShred(ctx context.Context, rng *rand.Rand) (LaneReport, error) {
	lr := LaneReport{Lane: "shred"}
	var cases []shredCase
	// Grid workloads shred their own conforming documents: the validator
	// accepts them, so the soundness arm is exercised, not vacuous.
	for _, cfg := range h.cfg.Grid {
		w := workload.Generate(cfg)
		for _, fanout := range []int{1, 2, 3} {
			cases = append(cases, shredCase{
				sigma: w.Sigma, rule: w.Rule, doc: w.Document(fanout).XMLString(),
			})
		}
	}
	// Random workloads over random documents from the generator
	// vocabulary: paths hit and miss, keys break, nulls appear.
	for i := 0; i < h.cfg.Cases; i++ {
		sigma, rule := witness.RandomWorkload(rng)
		cases = append(cases, shredCase{sigma: sigma, rule: rule, doc: randShredDoc(rng)})
	}
	for _, c := range cases {
		if err := checkCtx(ctx); err != nil {
			return lr, err
		}
		ds, accepted, err := h.checkShredCase(ctx, c)
		if err != nil {
			return lr, err
		}
		lr.Cases++
		h.countCase(lr.Lane)
		if accepted {
			lr.Confirmed++
		}
		for _, d := range ds {
			kind := disagreementKind(d)
			bad := func(n shredCase) bool {
				nds, _, err := h.checkShredCase(ctx, n)
				if err != nil {
					return false
				}
				for _, nd := range nds {
					if disagreementKind(nd) == kind {
						return true
					}
				}
				return false
			}
			sc, steps := shrinkShredKeys(c, bad, h.cfg.MaxShrinkSteps)
			h.cfg.Metrics.Counter("diff.shrink_steps").Add(int64(steps))
			if nds, _, err := h.checkShredCase(ctx, sc); err == nil {
				for _, nd := range nds {
					if disagreementKind(nd) == kind {
						d = nd
						break
					}
				}
			}
			d.Keys = keyStrings(sc.sigma)
			d.Transform = sc.rule.DSL()
			lr.Disagreements = append(lr.Disagreements, d)
			h.countDisagreement()
		}
	}
	return lr, nil
}

// disagreementKind is the stable discriminator the shrinker re-checks
// against: the "<kind>:" prefix of Got.
func disagreementKind(d Disagreement) string {
	if i := strings.IndexByte(d.Got, ':'); i >= 0 {
		return d.Got[:i]
	}
	return d.Got
}

// checkShredCase runs one case through the pipeline and all three
// comparisons. Errors are aborts (context, budget), never verdicts: a
// malformed random document cannot occur (documents are rendered from
// trees) and any decode failure is a real finding surfaced as an error.
func (h *harness) checkShredCase(ctx context.Context, c shredCase) ([]Disagreement, bool, error) {
	tr := transform.MustTransformation(c.rule)
	cover, err := core.NewEngine(c.sigma, c.rule).MinimumCoverCtx(ctx)
	if err != nil {
		return nil, false, err
	}
	schema := c.rule.Schema
	ms := shred.NewMemorySink()
	res, err := shred.Run(ctx, tr, strings.NewReader(c.doc), ms, shred.Options{
		Sigma:  c.sigma,
		Covers: map[string][]rel.FD{schema.Name: cover},
	})
	if err != nil {
		return nil, false, fmt.Errorf("shred lane: pipeline failed on a well-formed document: %w", err)
	}
	tree, err := xmltree.ParseString(c.doc)
	if err != nil {
		return nil, false, err
	}
	want := tr.Eval(tree)[schema.Name]
	got := ms.Relations()[schema.Name]
	got.Sort()

	base := Disagreement{Lane: "shred", Keys: keyStrings(c.sigma), Transform: c.rule.DSL()}
	var out []Disagreement
	if got.String() != want.String() {
		d := base
		d.Got = "streaming: " + got.String()
		d.Want = "tree: " + want.String()
		d.Detail = c.doc
		out = append(out, d)
	}
	guardViolated := map[string]bool{}
	for _, v := range res.Violations {
		guardViolated[v.FD] = true
	}
	for _, fd := range cover {
		fdStr := fd.Format(schema)
		oracle := len(want.CheckFD(fd)) > 0
		if guardViolated[fdStr] != oracle {
			d := base
			d.FD = fdStr
			d.Got = fmt.Sprintf("guard: violated=%v", guardViolated[fdStr])
			d.Want = fmt.Sprintf("rel.CheckFD: violated=%v", oracle)
			d.Detail = c.doc
			out = append(out, d)
		}
		if res.Accepted() && oracle {
			d := base
			d.FD = fdStr
			d.Got = "soundness: validator accepted the document"
			d.Want = "propagated FD holds on the shredded instance"
			d.Detail = c.doc
			out = append(out, d)
		}
	}
	return out, res.Accepted(), nil
}

// shrinkShredKeys drops keys one at a time while the disagreement
// persists — the modest shrink for data-plane cases (the document and
// rule are kept; most shred findings hinge on which keys propagate).
func shrinkShredKeys(c shredCase, bad func(shredCase) bool, maxSteps int) (shredCase, int) {
	steps := 0
	for improved := true; improved && steps < maxSteps; {
		improved = false
		for i := range c.sigma {
			if steps >= maxSteps {
				break
			}
			n := shredCase{rule: c.rule, doc: c.doc}
			n.sigma = append(append([]xmlkey.Key{}, c.sigma[:i]...), c.sigma[i+1:]...)
			steps++
			if bad(n) {
				c = n
				improved = true
				break
			}
		}
	}
	return c, steps
}

// randShredDoc builds a random document over the generator vocabulary
// plus a noise label, rendered through xmltree so it is well-formed.
func randShredDoc(rng *rand.Rand) string {
	labels := append(append([]string{}, genLabels...), "noise")
	var build func(n *xmltree.Node, depth int)
	build = func(n *xmltree.Node, depth int) {
		for _, a := range genAttrs {
			if rng.Intn(3) > 0 {
				n.SetAttr(a, fmt.Sprintf("%d", rng.Intn(3)))
			}
		}
		if rng.Intn(4) == 0 {
			n.AddText("t" + labels[rng.Intn(len(labels))])
		}
		if depth >= 4 {
			return
		}
		for kids := rng.Intn(4); kids > 0; kids-- {
			child := xmltree.NewElement(labels[rng.Intn(len(labels))])
			n.AddChild(child)
			build(child, depth+1)
		}
	}
	root := xmltree.NewElement(labels[rng.Intn(len(labels))])
	build(root, 0)
	return xmltree.NewTree(root).XMLString()
}
