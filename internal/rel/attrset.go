// Package rel is the relational substrate for XML constraint propagation
// (Davidson et al., ICDE 2003): relation schemas, instances with nulls,
// functional dependencies over attribute sets, Armstrong-style implication
// (via attribute closure), the paper's minimize() function for computing
// non-redundant covers (Fig 5 inset, after Beeri & Bernstein), cover
// equivalence, candidate keys, BCNF decomposition and 3NF synthesis, and
// the paper's null-aware FD satisfaction semantics (§3).
package rel

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Schema is an ordered list of attribute names; attribute sets and FDs are
// interpreted relative to a Schema. The paper's universal relation U is a
// Schema together with a table rule (package transform).
type Schema struct {
	// Name is the relation name (e.g. "chapter").
	Name string
	// Attrs are the attribute (field) names, in declaration order.
	Attrs []string
	index map[string]int
}

// NewSchema builds a schema; attribute names must be unique and non-empty.
func NewSchema(name string, attrs ...string) (*Schema, error) {
	s := &Schema{Name: name, Attrs: append([]string(nil), attrs...), index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("rel: schema %s: empty attribute name at position %d", name, i)
		}
		if _, dup := s.index[a]; dup {
			return nil, fmt.Errorf("rel: schema %s: duplicate attribute %q", name, a)
		}
		s.index[a] = i
	}
	return s, nil
}

// MustSchema is NewSchema but panics on error; for fixtures and tests.
func MustSchema(name string, attrs ...string) *Schema {
	s, err := NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of attributes.
func (s *Schema) Len() int { return len(s.Attrs) }

// Index returns the position of attribute a, or -1.
func (s *Schema) Index(a string) int {
	if i, ok := s.index[a]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains attribute a.
func (s *Schema) Has(a string) bool { return s.Index(a) >= 0 }

// Set builds an AttrSet from attribute names; unknown names are an error.
func (s *Schema) Set(attrs ...string) (AttrSet, error) {
	var as AttrSet
	for _, a := range attrs {
		i := s.Index(a)
		if i < 0 {
			return AttrSet{}, fmt.Errorf("rel: schema %s has no attribute %q", s.Name, a)
		}
		as = as.With(i)
	}
	return as, nil
}

// MustSet is Set but panics on unknown attributes.
func (s *Schema) MustSet(attrs ...string) AttrSet {
	as, err := s.Set(attrs...)
	if err != nil {
		panic(err)
	}
	return as
}

// All returns the set of all attributes of the schema.
func (s *Schema) All() AttrSet {
	var as AttrSet
	for i := range s.Attrs {
		as = as.With(i)
	}
	return as
}

// Names resolves an attribute set back to sorted attribute names.
func (s *Schema) Names(as AttrSet) []string {
	var out []string
	as.ForEach(func(i int) {
		out = append(out, s.Attrs[i])
	})
	sort.Strings(out)
	return out
}

// FormatSet renders an attribute set like "{isbn, chapterNum}".
func (s *Schema) FormatSet(as AttrSet) string {
	return "{" + strings.Join(s.Names(as), ", ") + "}"
}

// AttrSet is a set of attribute positions, stored as a bitset. The zero
// value is the empty set. AttrSets are immutable values: operations return
// new sets.
type AttrSet struct {
	words []uint64
}

// With returns the set with position i added.
func (a AttrSet) With(i int) AttrSet {
	w := i / 64
	n := len(a.words)
	if w >= n {
		n = w + 1
	}
	out := make([]uint64, n)
	copy(out, a.words)
	out[w] |= 1 << (uint(i) % 64)
	return AttrSet{words: out}
}

// Without returns the set with position i removed.
func (a AttrSet) Without(i int) AttrSet {
	w := i / 64
	if w >= len(a.words) {
		return a
	}
	out := make([]uint64, len(a.words))
	copy(out, a.words)
	out[w] &^= 1 << (uint(i) % 64)
	return AttrSet{words: out}.trim()
}

func (a AttrSet) trim() AttrSet {
	n := len(a.words)
	for n > 0 && a.words[n-1] == 0 {
		n--
	}
	return AttrSet{words: a.words[:n]}
}

// Has reports whether position i is in the set.
func (a AttrSet) Has(i int) bool {
	w := i / 64
	return w < len(a.words) && a.words[w]&(1<<(uint(i)%64)) != 0
}

// IsEmpty reports whether the set is empty.
func (a AttrSet) IsEmpty() bool {
	for _, w := range a.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Card returns the cardinality of the set.
func (a AttrSet) Card() int {
	n := 0
	for _, w := range a.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Union returns a ∪ b.
func (a AttrSet) Union(b AttrSet) AttrSet {
	n := len(a.words)
	if len(b.words) > n {
		n = len(b.words)
	}
	out := make([]uint64, n)
	copy(out, a.words)
	for i, w := range b.words {
		out[i] |= w
	}
	return AttrSet{words: out}
}

// Intersect returns a ∩ b.
func (a AttrSet) Intersect(b AttrSet) AttrSet {
	n := len(a.words)
	if len(b.words) < n {
		n = len(b.words)
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = a.words[i] & b.words[i]
	}
	return AttrSet{words: out}.trim()
}

// Minus returns a ∖ b.
func (a AttrSet) Minus(b AttrSet) AttrSet {
	out := make([]uint64, len(a.words))
	copy(out, a.words)
	for i := 0; i < len(out) && i < len(b.words); i++ {
		out[i] &^= b.words[i]
	}
	return AttrSet{words: out}.trim()
}

// SubsetOf reports whether a ⊆ b.
func (a AttrSet) SubsetOf(b AttrSet) bool {
	for i, w := range a.words {
		var bw uint64
		if i < len(b.words) {
			bw = b.words[i]
		}
		if w&^bw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether a = b.
func (a AttrSet) Equal(b AttrSet) bool {
	return a.SubsetOf(b) && b.SubsetOf(a)
}

// ForEach calls f for each position in ascending order.
func (a AttrSet) ForEach(f func(i int)) {
	for wi, w := range a.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			f(wi*64 + b)
			w &^= 1 << uint(b)
		}
	}
}

// Positions returns the member positions in ascending order.
func (a AttrSet) Positions() []int {
	out := make([]int, 0, a.Card())
	a.ForEach(func(i int) { out = append(out, i) })
	return out
}

// key returns a map-key representation: the trimmed words encoded
// big-endian, so that lexicographic order on keys matches cmpWords.
func (a AttrSet) key() string { return string(a.AppendKey(nil)) }

// AppendKey appends a's map-key encoding to buf: the trimmed words,
// big-endian. Two sets have the same encoding exactly when they are Equal.
func (a AttrSet) AppendKey(buf []byte) []byte {
	t := a.trim()
	for _, w := range t.words {
		buf = append(buf,
			byte(w>>56), byte(w>>48), byte(w>>40), byte(w>>32),
			byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	}
	return buf
}

// cmpWords orders two trimmed word slices exactly as the lexicographic
// order of their key() encodings: word-by-word numerically, a strict
// prefix ordering first. Used by SortFDs to avoid materializing keys.
func cmpWords(a, b []uint64) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		switch {
		case a[i] < b[i]:
			return -1
		case a[i] > b[i]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}
