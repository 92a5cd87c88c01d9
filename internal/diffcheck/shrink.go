package diffcheck

import (
	"xkprop/internal/rel"
	"xkprop/internal/transform"
	"xkprop/internal/xmlkey"
	"xkprop/internal/xpath"
)

// The shrinkers reduce a disagreeing case to a (near-)minimal one by
// greedy deletion: drop whole keys, drop key attributes, shorten paths
// one step at a time, prune field rules — accepting a candidate only if
// the disagreement predicate still holds, and repeating passes until a
// full pass changes nothing or the step budget runs out. Every operation
// strictly shrinks the case (fewer keys, fewer attributes, shorter paths,
// narrower schema) and preserves well-formedness (WithoutStep keeps
// attribute steps final; field pruning rebuilds the schema), so the loop
// terminates and every intermediate case is replayable. Soundness is by
// construction: the returned case was re-checked and still disagrees.

// shrinker tracks the shared step budget across passes.
type shrinker struct {
	steps int
	max   int
}

// spend consumes one re-check; false once the budget is gone.
func (s *shrinker) spend() bool {
	if s.steps >= s.max {
		return false
	}
	s.steps++
	return true
}

// shrinkImpl minimizes an implication case under the predicate bad.
func shrinkImpl(c implCase, bad func(implCase) bool, maxSteps int) (implCase, int) {
	s := &shrinker{max: maxSteps}
	for changed := true; changed; {
		changed = false
		// Drop whole keys.
		for i := 0; i < len(c.sigma); i++ {
			n := implCase{sigma: withoutKey(c.sigma, i), phi: c.phi}
			if s.spend() && bad(n) {
				c, changed = n, true
				break
			}
		}
		if changed {
			continue
		}
		// Drop key attributes (Σ's and φ's).
		for i := 0; i <= len(c.sigma); i++ {
			k := c.phi
			if i < len(c.sigma) {
				k = c.sigma[i]
			}
			done := false
			for j := 0; j < len(k.Attrs); j++ {
				nk := xmlkey.New(k.Name, k.Context, k.Target, withoutString(k.Attrs, j)...)
				n := c.withKey(i, nk)
				if s.spend() && bad(n) {
					c, changed, done = n, true, true
					break
				}
			}
			if done {
				break
			}
		}
		if changed {
			continue
		}
		// Shorten paths, one step at a time.
		for i := 0; i <= len(c.sigma); i++ {
			k := c.phi
			if i < len(c.sigma) {
				k = c.sigma[i]
			}
			nk, ok := shrinkKeyPaths(k, func(nk xmlkey.Key) bool {
				if !s.spend() {
					return false
				}
				return bad(c.withKey(i, nk))
			})
			if ok {
				c, changed = c.withKey(i, nk), true
				break
			}
		}
	}
	return c, s.steps
}

// withKey replaces key i (i == len(sigma) addresses φ).
func (c implCase) withKey(i int, k xmlkey.Key) implCase {
	if i == len(c.sigma) {
		return implCase{sigma: c.sigma, phi: k}
	}
	sigma := append([]xmlkey.Key(nil), c.sigma...)
	sigma[i] = k
	return implCase{sigma: sigma, phi: c.phi}
}

// shrinkFDCase minimizes a propagation case under the predicate bad.
func shrinkFDCase(c fdCase, bad func(fdCase) bool, maxSteps int) (fdCase, int) {
	s := &shrinker{max: maxSteps}
	for changed := true; changed; {
		changed = false
		// Drop whole keys.
		for i := 0; i < len(c.sigma); i++ {
			n := fdCase{sigma: withoutKey(c.sigma, i), rule: c.rule, fd: c.fd}
			if s.spend() && bad(n) {
				c, changed = n, true
				break
			}
		}
		if changed {
			continue
		}
		// Drop key attributes and shorten key paths.
		for i := 0; i < len(c.sigma); i++ {
			k := c.sigma[i]
			done := false
			for j := 0; j < len(k.Attrs); j++ {
				nk := xmlkey.New(k.Name, k.Context, k.Target, withoutString(k.Attrs, j)...)
				n := c.withSigmaKey(i, nk)
				if s.spend() && bad(n) {
					c, changed, done = n, true, true
					break
				}
			}
			if done {
				break
			}
			nk, ok := shrinkKeyPaths(k, func(nk xmlkey.Key) bool {
				if !s.spend() {
					return false
				}
				return bad(c.withSigmaKey(i, nk))
			})
			if ok {
				c, changed = c.withSigmaKey(i, nk), true
				break
			}
		}
		if changed {
			continue
		}
		// Prune field rules not mentioned by ψ, remapping ψ onto the
		// narrowed schema by attribute name.
		for _, fr := range c.rule.Fields {
			idx := c.rule.Schema.Index(fr.Field)
			if c.fd.Lhs.Has(idx) || c.fd.Rhs.Has(idx) {
				continue
			}
			nr, ok := ruleWithoutField(c.rule, fr.Field)
			if !ok {
				continue
			}
			nfd, err := rel.ParseFD(nr.Schema, c.fd.Format(c.rule.Schema))
			if err != nil {
				continue
			}
			n := fdCase{sigma: c.sigma, rule: nr, fd: nfd}
			if s.spend() && bad(n) {
				c, changed = n, true
				break
			}
		}
	}
	return c, s.steps
}

func (c fdCase) withSigmaKey(i int, k xmlkey.Key) fdCase {
	sigma := append([]xmlkey.Key(nil), c.sigma...)
	sigma[i] = k
	return fdCase{sigma: sigma, rule: c.rule, fd: c.fd}
}

// coverCase is an FD-free propagation case (cover and server lanes).
type coverCase struct {
	sigma []xmlkey.Key
	rule  *transform.Rule
}

// shrinkCoverCase minimizes a cover-comparison case under bad. Field
// pruning keeps at least one field (an empty schema has no cover to
// compare).
func shrinkCoverCase(c coverCase, bad func(coverCase) bool, maxSteps int) (coverCase, int) {
	fc := fdCase{sigma: c.sigma, rule: c.rule, fd: rel.NewFD(rel.AttrSet{}, rel.AttrSet{})}
	fbad := func(n fdCase) bool { return bad(coverCase{sigma: n.sigma, rule: n.rule}) }
	out, steps := shrinkFDCase(fc, fbad, maxSteps)
	return coverCase{sigma: out.sigma, rule: out.rule}, steps
}

// shrinkKeyPaths tries removing each step of the key's context and target
// paths; accept reports whether the mutated key keeps the disagreement.
// The target is never shrunk to ε (a key of the empty path is degenerate
// in a different way than the original case).
func shrinkKeyPaths(k xmlkey.Key, accept func(xmlkey.Key) bool) (xmlkey.Key, bool) {
	for j := 0; j < k.Context.Len(); j++ {
		nk := xmlkey.New(k.Name, k.Context.WithoutStep(j), k.Target, k.Attrs...)
		if accept(nk) {
			return nk, true
		}
	}
	if k.Target.Len() > 1 {
		for j := 0; j < k.Target.Len(); j++ {
			p := k.Target.WithoutStep(j)
			if p.IsEpsilon() || misplacedAttr(p) {
				continue
			}
			nk := xmlkey.New(k.Name, k.Context, p, k.Attrs...)
			if accept(nk) {
				return nk, true
			}
		}
	}
	return k, false
}

// misplacedAttr guards the one removal WithoutStep cannot repair: with an
// attribute-final path, removing the final step could surface an earlier
// step — never an attribute by construction, so this is defensive only.
func misplacedAttr(p xpath.Path) bool {
	for i := 0; i < p.Len()-1; i++ {
		if p.Step(i).IsAttribute() {
			return true
		}
	}
	return false
}

// ruleWithoutField rebuilds the rule without the named field: the schema
// narrows, the field rule disappears, and the variable tree is untouched
// (a variable need not populate a field). Refuses to drop the last field.
func ruleWithoutField(r *transform.Rule, field string) (*transform.Rule, bool) {
	if len(r.Fields) <= 1 {
		return nil, false
	}
	attrs := make([]string, 0, len(r.Fields)-1)
	fields := make([]transform.FieldRule, 0, len(r.Fields)-1)
	for _, fr := range r.Fields {
		if fr.Field == field {
			continue
		}
		attrs = append(attrs, fr.Field)
		fields = append(fields, fr)
	}
	schema, err := rel.NewSchema(r.Schema.Name, attrs...)
	if err != nil {
		return nil, false
	}
	nr, err := transform.NewRule(schema, fields, r.Mappings)
	if err != nil {
		return nil, false
	}
	return nr, true
}

func withoutKey(sigma []xmlkey.Key, i int) []xmlkey.Key {
	out := make([]xmlkey.Key, 0, len(sigma)-1)
	out = append(out, sigma[:i]...)
	return append(out, sigma[i+1:]...)
}

func withoutString(xs []string, i int) []string {
	out := make([]string, 0, len(xs)-1)
	out = append(out, xs[:i]...)
	return append(out, xs[i+1:]...)
}
