package rel

import (
	"fmt"
	"math/rand"
	"testing"
)

// randomCover builds n random single-RHS FDs over m attributes.
func randomCover(r *rand.Rand, m, n int) []FD {
	var fds []FD
	for i := 0; i < n; i++ {
		var lhs AttrSet
		for k := 0; k < 2; k++ {
			lhs = lhs.With(r.Intn(m))
		}
		fds = append(fds, FD{Lhs: lhs, Rhs: AttrSet{}.With(r.Intn(m))})
	}
	return fds
}

// BenchmarkClosure measures the attribute-closure fixpoint, the inner loop
// of every implication test (and hence of minimize and the propagated-FD
// machinery).
func BenchmarkClosure(b *testing.B) {
	for _, size := range []struct{ m, n int }{{20, 30}, {100, 150}, {500, 600}} {
		r := rand.New(rand.NewSource(1))
		fds := randomCover(r, size.m, size.n)
		x := AttrSet{}.With(0).With(1)
		b.Run(fmt.Sprintf("attrs=%d/fds=%d", size.m, size.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = Closure(fds, x)
			}
		})
	}
}

// keyedCover builds FDs shaped like minimumCover's candidates over a chain
// of levels with perLevel fields each: level d has two transitive keys,
// the first field of every level down to d, and the first key of level
// d-1 plus the second field of level d, and each is the LHS of every
// field of its level.
func keyedCover(levels, perLevel int) []FD {
	field := func(d, j int) int { return d*perLevel + j }
	var fds []FD
	var first AttrSet
	for d := 0; d < levels; d++ {
		keys := []AttrSet{first.With(field(d, 0)), first.With(field(d, 1))}
		first = keys[0]
		for j := 0; j < perLevel; j++ {
			for _, k := range keys {
				if f := NewFD(k, AttrSet{}.With(field(d, j))); !f.IsTrivial() {
					fds = append(fds, f)
				}
			}
		}
	}
	return fds
}

// BenchmarkMinimize measures the cover-minimization pass, the dominant
// cost of minimumCover at large field counts (see EXPERIMENTS.md on the
// Fig 7a growth beyond 200 fields): random lists whose LHSs are nearly
// all distinct, and keyed lists whose few LHSs each determine a level.
func BenchmarkMinimize(b *testing.B) {
	for _, size := range []struct{ m, n int }{{20, 30}, {100, 150}, {300, 400}} {
		r := rand.New(rand.NewSource(2))
		fds := randomCover(r, size.m, size.n)
		b.Run(fmt.Sprintf("attrs=%d/fds=%d", size.m, size.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if out := Minimize(fds); out == nil {
					_ = out
				}
			}
		})
	}
	for _, size := range []struct{ levels, perLevel int }{{5, 20}, {10, 30}} {
		fds := keyedCover(size.levels, size.perLevel)
		b.Run(fmt.Sprintf("keyed/levels=%d/fields=%d", size.levels, size.levels*size.perLevel), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if out := Minimize(fds); out == nil {
					_ = out
				}
			}
		})
	}
}

// BenchmarkBCNF measures decomposition of random covers, up to the
// exact-projection cut-off of maxProjectionAttrs attributes.
func BenchmarkBCNF(b *testing.B) {
	for _, m := range []int{8, 16, maxProjectionAttrs} {
		s := make([]string, m)
		for i := range s {
			s[i] = fmt.Sprintf("a%d", i)
		}
		schema := MustSchema("r", s...)
		r := rand.New(rand.NewSource(3))
		fds := Minimize(randomCover(r, m, m))
		b.Run(fmt.Sprintf("attrs=%d", m), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				frags := BCNF(fds, schema.All())
				if len(frags) == 0 {
					b.Fatal("no fragments")
				}
			}
		})
	}
}

func BenchmarkCheckFD(b *testing.B) {
	s := MustSchema("r", "a", "b", "c")
	inst := NewRelation(s)
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 10000; i++ {
		inst.MustInsert(Tuple{V(fmt.Sprint(i)), V(fmt.Sprint(r.Intn(50))), V(fmt.Sprint(r.Intn(50)))})
	}
	fd := MustParseFD(s, "a -> b, c")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !inst.SatisfiesFD(fd) {
			b.Fatal("unique a must satisfy")
		}
	}
}
