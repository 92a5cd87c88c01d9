package core

import (
	"context"
	"fmt"
	"strings"

	"xkprop/internal/rel"
	"xkprop/internal/xmlkey"
	"xkprop/internal/xpath"
)

// This file holds the record of one run of Algorithm propagation. The
// walk in propagation.go fills an Explanation step by step, the way the
// paper narrates Example 4.2 ("the algorithm first checks if x_r is keyed
// by inspecting Σ ⊨ (ε, (ε, {})) ... it then checks whether x_a is keyed
// ..."), so the narrative is the run that decided the verdict, not a
// second run beside it. Explanations make negative verdicts actionable:
// they show which ancestor failed to be keyed or which LHS field cannot
// be guaranteed non-null.

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

// Explain runs Algorithm propagation on fd and returns its recorded walk,
// one explanation per right-hand-side attribute. Each verdict agrees with
// Propagates. Under a context that is cancelled, or whose budget runs out,
// it returns (nil, err): a partial narrative is never returned. A nil ctx
// runs unbudgeted.
func (e *Engine) Explain(ctx context.Context, fd rel.FD) ([]*Explanation, error) {
	schema := e.rule.Schema
	var out []*Explanation
	for _, a := range fd.Rhs.Positions() {
		ex := &Explanation{
			FD:       rel.NewFD(fd.Lhs, rel.AttrSet{}.With(a)).Format(schema),
			Relation: schema.Name,
		}
		keyFound, nullSafe, err := e.walk(ctx, fd.Lhs, a, true, ex)
		if err != nil {
			return nil, err
		}
		ex.KeyFound, ex.NullSafe, ex.Propagated = keyFound, nullSafe, keyFound && nullSafe
		out = append(out, ex)
	}
	return out, nil
}

// add records a step; on a nil Explanation (an unrecorded walk) it does
// nothing.
func (ex *Explanation) add(s Step) {
	if ex != nil {
		ex.Steps = append(ex.Steps, s)
	}
}

// query renders the implication query (c, (t, attrs)) for a step, and
// renders nothing for an unrecorded walk.
func (ex *Explanation) query(c, t xpath.Path, attrs []string) string {
	if ex == nil {
		return ""
	}
	return xmlkey.New("", c, t, attrs...).String()
}
