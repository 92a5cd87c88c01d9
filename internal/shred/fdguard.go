package shred

// Online enforcement of the propagated minimum cover: one hash index per
// FD maps the LHS projection of every complete tuple seen so far to its
// RHS projection. The null semantics mirror rel.CheckFD exactly —
// condition 1 (a tuple null on the LHS must be all-null on the RHS) is
// per-tuple, condition 2 compares only tuples free of nulls, keeping the
// first tuple of each LHS group as the witness. The guard runs inline as
// each row is enumerated, so its state needs no synchronisation.

import (
	"fmt"
	"strconv"
	"strings"

	"xkprop/internal/budget"
	"xkprop/internal/rel"
)

// FDViolation is a propagated FD failing on the shredded instance. For
// condition 1 it carries the single offending tuple; for condition 2 the
// first tuple of the LHS group and the conflicting one, in arrival order.
type FDViolation struct {
	Table     string           `json:"table"`
	FD        string           `json:"fd"`
	Condition int              `json:"condition"`
	Tuples    []ViolatingTuple `json:"tuples"`
}

func (v FDViolation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: FD %s violated (condition %d)", v.Table, v.FD, v.Condition)
	for _, t := range v.Tuples {
		fmt.Fprintf(&b, "\n  tuple %s at offset %d", t.render(), t.Offset)
		for _, ref := range t.Lineage {
			fmt.Fprintf(&b, "\n    %s = %s @%d", ref.Var, ref.Path, ref.Offset)
		}
	}
	return b.String()
}

// ViolatingTuple is one conflicting tuple with its provenance: values
// (nil = NULL), the anchoring byte offset, and per-variable lineage.
type ViolatingTuple struct {
	Values  []*string `json:"values"`
	Offset  int64     `json:"offset"`
	Lineage []Ref     `json:"lineage"`
}

func (t ViolatingTuple) render() string {
	parts := make([]string, len(t.Values))
	for i, v := range t.Values {
		if v == nil {
			parts[i] = "NULL"
		} else {
			parts[i] = *v
		}
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// guardTuple is a tuple the guard keeps as a witness or reports: the
// stored tuple, a compact copy of its lineage's binding pointers, and its
// rendering, made on its first violation and shared by every violation
// it takes part in.
type guardTuple struct {
	t   rel.Tuple
	lin lineage
	vt  *ViolatingTuple
}

// hold returns gt, or on first use a new record of t with a copy of lin.
func hold(gt *guardTuple, t rel.Tuple, lin lineage) *guardTuple {
	if gt == nil {
		gt = &guardTuple{t: t, lin: lin.clone()}
	}
	return gt
}

// render renders the tuple once; its lineage is rendered here, and only
// here, into an exactly sized Ref slice.
func (gt *guardTuple) render() ViolatingTuple {
	if gt.vt == nil {
		vt := ViolatingTuple{Offset: gt.lin.offset(), Lineage: gt.lin.refs()}
		vt.Values = make([]*string, len(gt.t))
		for i, v := range gt.t {
			if !v.Null {
				s := v.S
				vt.Values[i] = &s
			}
		}
		gt.vt = &vt
	}
	return *gt.vt
}

// guardEntry is the first tuple seen for one LHS projection: its RHS
// projection and the witness.
type guardEntry struct {
	rhsKey  string
	witness *guardTuple
}

// fdGuard enforces one rule's FDs. The entry and violation counts live in
// the run's runCaps, shared across rules, so the budget caps bound the
// whole run.
type fdGuard struct {
	table      string
	schema     *rel.Schema
	fds        []rel.FD
	fdStr      []string // per FD, formatted on its first violation
	lhsPos     [][]int  // per FD, ascending LHS column positions
	rhsPos     [][]int  // per FD, ascending RHS column positions
	idx        []map[string]guardEntry
	scratch    []byte
	caps       *runCaps
	checks     int64
	violations []FDViolation
}

func newFDGuard(table string, schema *rel.Schema, fds []rel.FD, caps *runCaps) *fdGuard {
	g := &fdGuard{
		table: table, schema: schema, fds: fds,
		fdStr: make([]string, len(fds)),
		caps:  caps,
	}
	for _, fd := range fds {
		g.lhsPos = append(g.lhsPos, fd.Lhs.Positions())
		g.rhsPos = append(g.rhsPos, fd.Rhs.Positions())
		g.idx = append(g.idx, map[string]guardEntry{})
	}
	return g
}

// appendProjKey appends the projection of t onto the given positions in
// the guard's length-prefixed key encoding, "<decimal len>:<bytes>\x00"
// per column in ascending position order.
func appendProjKey(dst []byte, t rel.Tuple, pos []int) []byte {
	for _, i := range pos {
		dst = strconv.AppendInt(dst, int64(len(t[i].S)), 10)
		dst = append(dst, ':')
		dst = append(dst, t[i].S...)
		dst = append(dst, 0)
	}
	return dst
}

// check runs one stored tuple through every FD; lin is the enumerating
// product's lineage, valid only during the call. Violations accumulate on
// the guard; a typed *budget.Error aborts the run when the index cap is
// exceeded or the run's violation count reaches its cap (abort, never
// evict — see budget.FDIndexEntries).
func (g *fdGuard) check(t rel.Tuple, lin lineage) error {
	var self *guardTuple // t's record: made on first use, shared by every index and violation
	for fi, fd := range g.fds {
		g.checks++
		if t.HasNullAt(fd.Lhs) {
			// Condition 1: null on the LHS demands an all-null RHS.
			if !t.AllNullAt(fd.Rhs) {
				self = hold(self, t, lin)
				if err := g.record(FDViolation{
					Table: g.table, FD: g.fdName(fi), Condition: 1,
					Tuples: []ViolatingTuple{self.render()},
				}); err != nil {
					return err
				}
			}
			continue
		}
		if t.HasNull() {
			// Condition 2 compares only tuples free of nulls.
			continue
		}
		// Both projections render into one scratch buffer; strings are
		// allocated only when a fresh entry is actually inserted.
		g.scratch = appendProjKey(g.scratch[:0], t, g.lhsPos[fi])
		split := len(g.scratch)
		g.scratch = appendProjKey(g.scratch, t, g.rhsPos[fi])
		lk, rk := g.scratch[:split], g.scratch[split:]
		if e, ok := g.idx[fi][string(lk)]; ok {
			if e.rhsKey != string(rk) {
				self = hold(self, t, lin)
				if err := g.record(FDViolation{
					Table: g.table, FD: g.fdName(fi), Condition: 2,
					Tuples: []ViolatingTuple{e.witness.render(), self.render()},
				}); err != nil {
					return err
				}
			}
			continue
		}
		if g.caps.fdEntries++; g.caps.maxFDEntries > 0 && g.caps.fdEntries > g.caps.maxFDEntries {
			return budget.Exceeded("shred fd enforcement", budget.FDIndexEntries, g.caps.maxFDEntries)
		}
		self = hold(self, t, lin)
		key := string(g.scratch) // both projections, one allocation
		g.idx[fi][key[:split]] = guardEntry{rhsKey: key[split:], witness: self}
	}
	return nil
}

func (g *fdGuard) fdName(fi int) string {
	if g.fdStr[fi] == "" {
		g.fdStr[fi] = g.fds[fi].Format(g.schema)
	}
	return g.fdStr[fi]
}

func (g *fdGuard) record(v FDViolation) error {
	g.violations = append(g.violations, v)
	return g.caps.addViolations(1)
}
