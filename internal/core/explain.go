package core

import (
	"fmt"
	"strings"

	"xkprop/internal/rel"
	"xkprop/internal/transform"
	"xkprop/internal/xmlkey"
)

// This file adds an explaining variant of Algorithm propagation: the same
// decision procedure, but recording the keyed-ancestor walk the way the
// paper narrates Example 4.2 ("the algorithm first checks if x_r is keyed
// by inspecting Σ ⊨ (ε, (ε, {})) ... it then checks whether x_a is keyed
// ..."). Explanations make negative verdicts actionable: they show which
// ancestor failed to be keyed or which LHS field cannot be guaranteed
// non-null.

// StepKind classifies one step of an explanation.
type StepKind uint8

const (
	// StepKeyed: an ancestor was shown keyed relative to the context.
	StepKeyed StepKind = iota
	// StepNotKeyed: the keyed check failed at this ancestor.
	StepNotKeyed
	// StepUnique: the RHS variable was shown unique under the context.
	StepUnique
	// StepNotUnique: the uniqueness check failed at this ancestor.
	StepNotUnique
	// StepExists: LHS fields were discharged by the existence closure.
	StepExists
	// StepMissingExistence: LHS fields left undischarged at the end.
	StepMissingExistence
	// StepTrivial: the RHS field is among the LHS fields.
	StepTrivial
)

// Step is one recorded step.
type Step struct {
	Kind StepKind
	// Target is the table-tree variable examined.
	Target string
	// Query is the implication query issued, when applicable.
	Query string
	// Fields are the LHS fields involved (for existence steps).
	Fields []string
}

func (s Step) String() string {
	switch s.Kind {
	case StepKeyed:
		return fmt.Sprintf("%s is keyed: Σ ⊨ %s", s.Target, s.Query)
	case StepNotKeyed:
		return fmt.Sprintf("%s is not keyed: Σ ⊭ %s", s.Target, s.Query)
	case StepUnique:
		return fmt.Sprintf("RHS variable unique under %s: Σ ⊨ %s", s.Target, s.Query)
	case StepNotUnique:
		return fmt.Sprintf("RHS variable not unique under %s: Σ ⊭ %s", s.Target, s.Query)
	case StepExists:
		return fmt.Sprintf("fields {%s} guaranteed non-null at %s", strings.Join(s.Fields, ", "), s.Target)
	case StepMissingExistence:
		return fmt.Sprintf("fields {%s} cannot be guaranteed non-null when the RHS is non-null", strings.Join(s.Fields, ", "))
	case StepTrivial:
		return "RHS field appears on the LHS (condition 2 is immediate)"
	default:
		return "unknown step"
	}
}

// Explanation is the recorded run of Algorithm propagation for one
// single-attribute FD.
type Explanation struct {
	FD         string
	Relation   string
	Steps      []Step
	KeyFound   bool
	NullSafe   bool
	Propagated bool
}

// String renders the explanation as an indented narrative.
func (e *Explanation) String() string {
	var b strings.Builder
	verdict := "NOT PROPAGATED"
	if e.Propagated {
		verdict = "PROPAGATED"
	}
	fmt.Fprintf(&b, "%s on %s: %s\n", e.FD, e.Relation, verdict)
	for _, s := range e.Steps {
		fmt.Fprintf(&b, "  %s\n", s)
	}
	if !e.KeyFound {
		b.WriteString("  ⇒ no keyed ancestor with a unique RHS was found\n")
	}
	if !e.NullSafe {
		b.WriteString("  ⇒ condition 1 (null safety) cannot be guaranteed\n")
	}
	return b.String()
}

// Explain runs Algorithm propagation for a single-attribute FD and records
// every decision. For compound right-hand sides call it per attribute.
// The verdict always agrees with Propagates.
func (e *Engine) Explain(fd rel.FD) []*Explanation {
	var out []*Explanation
	fd.Rhs.ForEach(func(a int) {
		out = append(out, e.explainOne(fd.Lhs, a))
	})
	return out
}

func (e *Engine) explainOne(lhs rel.AttrSet, rhsAttr int) *Explanation {
	rule := e.rule
	schema := rule.Schema
	field := schema.Attrs[rhsAttr]
	ex := &Explanation{
		FD:       rel.NewFD(lhs, rel.AttrSet{}.With(rhsAttr)).Format(schema),
		Relation: schema.Name,
	}
	x, ok := rule.VarOf(field)
	if !ok {
		return ex
	}

	lhsFields := make(map[string]bool, lhs.Card())
	ycheck := make(map[string]bool, lhs.Card())
	lhs.ForEach(func(i int) {
		lhsFields[schema.Attrs[i]] = true
		ycheck[schema.Attrs[i]] = true
	})

	keyFound := lhsFields[field]
	if keyFound {
		ex.Steps = append(ex.Steps, Step{Kind: StepTrivial})
	}

	context := transform.RootVar
	for _, target := range rule.Ancestors(x) {
		attrs, covered := rule.AttrsOfVarForFields(target, lhsFields)
		if !keyFound {
			ctxPath := e.pathFromRoot(context)
			// Mirror propagatesOne: a failed path lookup (zero-value path,
			// would read as ε) must fail the step, not prove it.
			relPath, okPath := rule.PathBetween(context, target)
			q := xmlkey.New("", ctxPath, relPath, attrs...)
			if okPath && e.dec.Implies(q) {
				ex.Steps = append(ex.Steps, Step{Kind: StepKeyed, Target: target, Query: q.String()})
				context = target
				uniq, okUniq := rule.PathBetween(context, x)
				uq := xmlkey.New("", e.pathFromRoot(context), uniq)
				if okUniq && e.dec.Implies(uq) {
					ex.Steps = append(ex.Steps, Step{Kind: StepUnique, Target: target, Query: uq.String()})
					keyFound = true
				} else {
					ex.Steps = append(ex.Steps, Step{Kind: StepNotUnique, Target: target, Query: uq.String()})
				}
			} else {
				ex.Steps = append(ex.Steps, Step{Kind: StepNotKeyed, Target: target, Query: q.String()})
			}
		}
		if len(attrs) > 0 && e.dec.ExistsAllID(e.rootID(target), attrs) {
			discharged := make([]string, 0, len(covered))
			for _, f := range covered {
				if ycheck[f] {
					delete(ycheck, f)
					discharged = append(discharged, f)
				}
			}
			if len(discharged) > 0 {
				ex.Steps = append(ex.Steps, Step{Kind: StepExists, Target: target, Fields: discharged})
			}
		}
	}
	if len(ycheck) > 0 {
		missing := make([]string, 0, len(ycheck))
		for f := range ycheck {
			missing = append(missing, f)
		}
		sortStrings(missing)
		ex.Steps = append(ex.Steps, Step{Kind: StepMissingExistence, Fields: missing})
	}
	ex.KeyFound = keyFound
	ex.NullSafe = len(ycheck) == 0
	ex.Propagated = keyFound && ex.NullSafe
	return ex
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
