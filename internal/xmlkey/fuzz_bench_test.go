package xmlkey

import (
	"fmt"
	"testing"

	"xkprop/internal/xmltree"
	"xkprop/internal/xpath"
)

// FuzzParseKey checks the key parser never panics and accepted keys
// round-trip through String.
func FuzzParseKey(f *testing.F) {
	for _, seed := range []string{
		"(ε, (//book, {@isbn}))",
		"φ2 = (//book, (chapter, {@number}))",
		"(//a/b, (c//d, {}))",
		"(ε, (x, {@a, @b}))",
		"k=(ε,(a,{@x,@x}))",
		"(, (, {}))",
		"((((",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		k, err := Parse(in)
		if err != nil {
			return
		}
		k2, err := Parse(k.String())
		if err != nil {
			t.Fatalf("round trip parse failed: %q -> %q: %v", in, k.String(), err)
		}
		if !k.Equal(k2) {
			t.Fatalf("round trip not equal: %q -> %q -> %q", in, k, k2)
		}
		// Self-implication must always hold.
		if !Implies([]Key{k}, k) {
			t.Fatalf("key does not imply itself: %s", k)
		}
	})
}

// chainKeys builds a transitive chain of n keys l1/../li keyed by @a.
func chainKeys(n int) []Key {
	out := make([]Key, n)
	ctx := xpath.Epsilon
	for i := 0; i < n; i++ {
		tgt := xpath.Elem(fmt.Sprintf("l%d", i+1))
		out[i] = New(fmt.Sprintf("k%d", i+1), ctx, tgt, "a")
		ctx = ctx.Concat(tgt)
	}
	return out
}

func BenchmarkImplicationPositive(b *testing.B) {
	for _, n := range []int{5, 20, 50} {
		sigma := chainKeys(n)
		phi := sigma[n-1]
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !Implies(sigma, phi) {
					b.Fatal("expected implication")
				}
			}
		})
	}
}

func BenchmarkImplicationNegative(b *testing.B) {
	for _, n := range []int{5, 20, 50} {
		sigma := chainKeys(n)
		// Absolute key for the deepest level is NOT implied.
		deep := sigma[n-1]
		phi := New("", xpath.Epsilon, deep.Context.Concat(deep.Target), "a")
		if n == 1 {
			continue
		}
		b.Run(fmt.Sprintf("keys=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if Implies(sigma, phi) {
					b.Fatal("unexpected implication")
				}
			}
		})
	}
}

// BenchmarkImplicationWarmDecider asks one goal over and over on one
// decider: after the first call, both the proof and the refutation are
// one read of the shared memo.
func BenchmarkImplicationWarmDecider(b *testing.B) {
	sigma := chainKeys(30)
	deep := sigma[29]
	for _, bc := range []struct {
		name string
		phi  Key
		want bool
	}{
		{"positive", deep, true},
		// The absolute key of the deepest level is not implied.
		{"negative", New("", xpath.Epsilon, deep.Context.Concat(deep.Target), "a"), false},
	} {
		d := NewDecider(sigma)
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if d.Implies(bc.phi) != bc.want {
					b.Fatalf("Implies(%s) != %v", bc.phi, bc.want)
				}
			}
		})
	}
}

func BenchmarkValidate(b *testing.B) {
	sigma := chainKeys(3)
	// A document with 1000 l1 chains (each l1 holding one l2/l3 chain),
	// unique @a values at every level.
	root := xmltree.NewElement("r")
	serial := 0
	for i := 0; i < 1000; i++ {
		cur := root
		for lvl := 1; lvl <= 3; lvl++ {
			cur = cur.Elem(fmt.Sprintf("l%d", lvl))
			serial++
			cur.SetAttr("a", fmt.Sprintf("u%d", serial))
		}
	}
	doc := xmltree.NewTree(root)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range sigma {
			if !Satisfies(doc, k) {
				b.Fatal("expected satisfaction")
			}
		}
	}
}
