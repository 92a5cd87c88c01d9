package stream

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"xkprop/internal/xmlkey"
	"xkprop/internal/xmltok"
)

// TestStreamSteadyStateAllocs pins the lazy-path optimization: elements
// that are neither context nor target nodes must not allocate at all in
// steady state — in particular v.path() must not be rendered per start
// tag (that was one string join per element). The document below opens
// and closes plenty of non-matching structure; after one warm-up pass
// (frame slices, context pool, tokenizer buffers), a full tokenize+feed
// pass must run allocation-free.
func TestStreamSteadyStateAllocs(t *testing.T) {
	sigma := xmlkey.MustParseSet("(ε, (//book, {@isbn}))")
	var sb strings.Builder
	sb.WriteString("<r>")
	for i := 0; i < 50; i++ {
		sb.WriteString(`<shelf row="9"><slot><empty/></slot></shelf>`)
	}
	sb.WriteString("</r>")
	doc := []byte(sb.String())

	v := NewValidator(sigma)
	rd := bytes.NewReader(doc)
	tk := xmltok.New(rd, v.in)
	pass := func() {
		rd.Reset(doc)
		tk.Reset(rd)
		for {
			tok, err := tk.Next()
			if err != nil {
				return
			}
			if err := v.Feed(tok); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // warm up pools and label cache
	if avg := testing.AllocsPerRun(50, pass); avg != 0 {
		t.Fatalf("steady-state validation of non-matching elements allocates %.1f/op, want 0", avg)
	}
	if !v.OK() {
		t.Fatalf("unexpected violations: %v", v.Violations())
	}
}

// TestStreamTupleEncodingUnchanged pins the key-tuple encoding byte for
// byte against the fmt.Fprintf("%d:%s\x00") form appendTupleField
// replaced: equal tuples define duplicate keys, so the encoding is part
// of the validator's observable behavior.
func TestStreamTupleEncodingUnchanged(t *testing.T) {
	vals := [][]byte{
		[]byte(""),
		[]byte("a"),
		[]byte("1:2"),
		[]byte("with\x00nul"),
		[]byte("naïve 文字 🎈"),
		bytes.Repeat([]byte("x"), 1234), // multi-digit length prefix
	}
	var want strings.Builder
	var got []byte
	for _, val := range vals {
		fmt.Fprintf(&want, "%d:%s\x00", len(val), val)
		got = appendTupleField(got, val)
	}
	if string(got) != want.String() {
		t.Fatalf("tuple encoding changed:\n got %q\nwant %q", got, want.String())
	}
}

// TestStreamTupleNoFalseCollisions exercises the length-prefixing through
// the validator: values crafted so naive concatenation would collide must
// not be reported as duplicates, and genuinely equal tuples must be.
func TestStreamTupleNoFalseCollisions(t *testing.T) {
	sigma := xmlkey.MustParseSet("(ε, (//b, {@x, @y}))")
	// ("ab","c") vs ("a","bc"): same concatenation, different tuples.
	ok := `<r><b x="ab" y="c"/><b x="a" y="bc"/></r>`
	if vs, err := ValidateString(ok, sigma); err != nil || len(vs) != 0 {
		t.Fatalf("distinct tuples flagged: err=%v vs=%v", err, vs)
	}
	dup := `<r><b x="ab" y="c"/><b x="ab" y="c"/></r>`
	vs, err := ValidateString(dup, sigma)
	if err != nil || len(vs) != 1 || vs[0].Kind != xmlkey.DuplicateKey {
		t.Fatalf("equal tuples not flagged: err=%v vs=%v", err, vs)
	}
}
