package rel

import (
	"bufio"
	"fmt"
	"sort"
	"strings"
)

// Value is a relational field value: a string or NULL. XML's
// semistructured nature makes nulls pervasive in generated relations (§3).
type Value struct {
	Null bool
	S    string
}

// NullValue is the NULL value.
var NullValue = Value{Null: true}

// V is a non-null value.
func V(s string) Value { return Value{S: s} }

func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	return v.S
}

// Equal compares two values. Following SQL (and §3 of the paper),
// comparisons involving NULL never hold, including NULL = NULL.
func (v Value) Equal(o Value) bool {
	return !v.Null && !o.Null && v.S == o.S
}

// Tuple is one row; len(Tuple) equals the schema arity.
type Tuple []Value

// HasNullAt reports whether any position of the attribute set is null.
func (t Tuple) HasNullAt(as AttrSet) bool {
	null := false
	as.ForEach(func(i int) {
		if t[i].Null {
			null = true
		}
	})
	return null
}

// AllNullAt reports whether every position of the attribute set is null.
func (t Tuple) AllNullAt(as AttrSet) bool {
	all := true
	as.ForEach(func(i int) {
		if !t[i].Null {
			all = false
		}
	})
	return all
}

// HasNull reports whether any field of the tuple is null.
func (t Tuple) HasNull() bool {
	for _, v := range t {
		if v.Null {
			return true
		}
	}
	return false
}

// projectKey builds an unambiguous string key of the tuple's projection.
func (t Tuple) projectKey(as AttrSet) string {
	var b strings.Builder
	as.ForEach(func(i int) {
		fmt.Fprintf(&b, "%d:%s\x00", len(t[i].S), t[i].S)
	})
	return b.String()
}

// Relation is a relation instance: a schema plus tuples (bag semantics; the
// transformation's Cartesian-product evaluation can produce duplicates,
// which are deduplicated by the evaluator before insertion).
type Relation struct {
	Schema *Schema
	Tuples []Tuple
}

// NewRelation creates an empty instance of the schema.
func NewRelation(s *Schema) *Relation { return &Relation{Schema: s} }

// Insert appends a tuple after arity-checking it.
func (r *Relation) Insert(t Tuple) error {
	if len(t) != r.Schema.Len() {
		return fmt.Errorf("rel: %s: tuple arity %d, want %d", r.Schema.Name, len(t), r.Schema.Len())
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// MustInsert is Insert but panics on arity mismatch.
func (r *Relation) MustInsert(t Tuple) {
	if err := r.Insert(t); err != nil {
		panic(err)
	}
}

// FDViolation describes how an instance fails an FD under the paper's
// null-aware semantics (§3).
type FDViolation struct {
	FD FD
	// Condition is 1 or 2, per §3's two conditions.
	Condition int
	// Rows are the offending tuple indices (one for condition 1, two for 2).
	Rows []int
}

func (v FDViolation) String() string {
	if v.Condition == 1 {
		return fmt.Sprintf("condition 1 violated at row %d: LHS contains NULL but RHS does not", v.Rows[0])
	}
	return fmt.Sprintf("condition 2 violated at rows %d and %d: tuples agree on LHS but differ on RHS", v.Rows[0], v.Rows[1])
}

// CheckFD verifies the FD on the instance under the paper's semantics:
//
//  1. for any tuple t, if π_X(t) contains null then π_Y(t) is null
//     (an "incomplete key" cannot determine complete fields);
//  2. for null-free tuples t1, t2: π_X(t1) = π_X(t2) ⇒ π_Y(t1) = π_Y(t2).
//
// It returns all violations (empty iff the instance satisfies the FD).
func (r *Relation) CheckFD(f FD) []FDViolation {
	var out []FDViolation
	// Condition 1.
	for i, t := range r.Tuples {
		if t.HasNullAt(f.Lhs) && !t.AllNullAt(f.Rhs) {
			out = append(out, FDViolation{FD: f, Condition: 1, Rows: []int{i}})
		}
	}
	// Condition 2, on null-free tuples, grouped by LHS projection.
	groups := map[string]int{}
	for i, t := range r.Tuples {
		if t.HasNull() {
			continue
		}
		k := t.projectKey(f.Lhs)
		if j, ok := groups[k]; ok {
			if r.Tuples[j].projectKey(f.Rhs) != t.projectKey(f.Rhs) {
				out = append(out, FDViolation{FD: f, Condition: 2, Rows: []int{j, i}})
			}
		} else {
			groups[k] = i
		}
	}
	return out
}

// SatisfiesFD reports whether the instance satisfies the FD.
func (r *Relation) SatisfiesFD(f FD) bool { return len(r.CheckFD(f)) == 0 }

// SatisfiesAll reports whether the instance satisfies every FD.
func (r *Relation) SatisfiesAll(fds []FD) bool {
	for _, f := range fds {
		if !r.SatisfiesFD(f) {
			return false
		}
	}
	return true
}

// Dedup removes duplicate tuples (set semantics), preserving first
// occurrence order.
func (r *Relation) Dedup() {
	seen := make(map[string]bool, len(r.Tuples))
	out := r.Tuples[:0]
	all := r.Schema.All()
	for _, t := range r.Tuples {
		k := t.projectKey(all) + nullMask(t)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, t)
	}
	r.Tuples = out
}

func nullMask(t Tuple) string {
	b := make([]byte, len(t))
	for i, v := range t {
		if v.Null {
			b[i] = '1'
		} else {
			b[i] = '0'
		}
	}
	return string(b)
}

// Sort orders tuples lexicographically for deterministic output (nulls
// sort last within a column).
func (r *Relation) Sort() {
	sort.SliceStable(r.Tuples, func(i, j int) bool {
		a, b := r.Tuples[i], r.Tuples[j]
		for c := range a {
			switch {
			case a[c].Null && b[c].Null:
				continue
			case a[c].Null:
				return false
			case b[c].Null:
				return true
			case a[c].S != b[c].S:
				return a[c].S < b[c].S
			}
		}
		return false
	})
}

// String renders the instance as an aligned table, like Fig 2 of the paper.
func (r *Relation) String() string {
	widths := make([]int, r.Schema.Len())
	for i, a := range r.Schema.Attrs {
		widths[i] = len(a)
	}
	for _, t := range r.Tuples {
		for i, v := range t {
			if l := len(v.String()); l > widths[i] {
				widths[i] = l
			}
		}
	}
	var b strings.Builder
	b.WriteString(r.Schema.Name + ":\n")
	row := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "  %-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	row(r.Schema.Attrs)
	for _, t := range r.Tuples {
		cells := make([]string, len(t))
		for i, v := range t {
			cells[i] = v.String()
		}
		row(cells)
	}
	return b.String()
}

// WriteCSVField writes one CSV field to w per RFC 4180: a field holding a
// comma, double quote, CR or LF is wrapped in double quotes with every
// embedded double quote doubled; any other field is written verbatim. The
// special bytes are all ASCII, so a plain byte loop finds them; it runs
// once per field on the shredding pipeline's CSV sink, and Relation.CSV
// writes through it too, so both emit the same bytes for the same value.
func WriteCSVField(w *bufio.Writer, s string) {
	i := 0
scan:
	for ; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\r', '\n':
			break scan
		}
	}
	if i == len(s) {
		w.WriteString(s)
		return
	}
	w.WriteByte('"')
	for {
		j := strings.IndexByte(s, '"')
		if j < 0 {
			break
		}
		w.WriteString(s[:j+1])
		w.WriteByte('"')
		s = s[j+1:]
	}
	w.WriteString(s)
	w.WriteByte('"')
}

// CSV renders the instance as CSV with a header row; NULL renders as the
// empty field, and fields are escaped per RFC 4180 by WriteCSVField.
func (r *Relation) CSV() string {
	var b strings.Builder
	w := bufio.NewWriter(&b)
	for i, a := range r.Schema.Attrs {
		if i > 0 {
			w.WriteByte(',')
		}
		WriteCSVField(w, a)
	}
	w.WriteByte('\n')
	for _, t := range r.Tuples {
		for i, v := range t {
			if i > 0 {
				w.WriteByte(',')
			}
			if !v.Null {
				WriteCSVField(w, v.S)
			}
		}
		w.WriteByte('\n')
	}
	w.Flush()
	return b.String()
}
