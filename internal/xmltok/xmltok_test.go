package xmltok_test

import (
	"bytes"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"xkprop/internal/paperdata"
	"xkprop/internal/workload"
	"xkprop/internal/xmltok"
	"xkprop/internal/xpath"
)

// collect drains a source into copied tokens (kind, offset, name parts,
// label/code, attrs, data) so results survive the view lifetime.
type flatTok struct {
	kind  xmltok.Kind
	off   int64
	name  string
	space string
	local string
	label string
	code  uint32
	attrs [][2]string
	data  string
}

func collect(t *testing.T, src xmltok.Source) ([]flatTok, error) {
	t.Helper()
	var out []flatTok
	for {
		tok, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		ft := flatTok{
			kind: tok.Kind, off: tok.Offset,
			name: string(tok.Name), space: string(tok.Space), local: string(tok.Local),
			label: tok.Label, code: tok.Code, data: string(tok.Data),
		}
		for _, a := range tok.Attrs {
			ft.attrs = append(ft.attrs, [2]string{string(a.Name), string(a.Value)})
		}
		out = append(out, ft)
	}
}

func fastToks(t *testing.T, doc string) ([]flatTok, error) {
	return collect(t, xmltok.New(strings.NewReader(doc), nil))
}

// TestParityCorpora holds the two decoders to token-for-token agreement
// over the paper's Fig 1 document and the bench workload grid documents.
func TestParityCorpora(t *testing.T) {
	docs := []string{paperdata.Fig1XML}
	for _, cfg := range []workload.Config{
		{Fields: 8, Depth: 2, Keys: 4},
		{Fields: 12, Depth: 3, Keys: 6},
		{Fields: 15, Depth: 5, Keys: 10},
	} {
		for fanout := 1; fanout <= 4; fanout++ {
			docs = append(docs, workload.Generate(cfg).Document(fanout).XMLString())
		}
	}
	for i, doc := range docs {
		if diff := xmltok.CompareDoc([]byte(doc), nil); diff != "" {
			t.Errorf("corpus doc %d: %s", i, diff)
		}
	}
}

// TestOffsetsCRLFAndUTF8 pins byte-exact offsets: CR and CRLF sequences
// are rewritten to \n in token data but every Offset still counts raw
// input bytes, and multi-byte UTF-8 counts bytes, not runes.
func TestOffsetsCRLFAndUTF8(t *testing.T) {
	doc := "<r>\r\n文字🎈<x/></r>"
	// Byte layout: <r> = 0..2, \r\n = 3..4, 文字 = 5..10, 🎈 = 11..14,
	// <x/> at 15, </r> at 19.
	toks, err := fastToks(t, doc)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind xmltok.Kind
		off  int64
		data string
	}{
		{xmltok.StartElement, 0, ""},
		{xmltok.CharData, 3, "\n文字🎈"},
		{xmltok.StartElement, 15, ""},
		{xmltok.EndElement, 19, ""}, // synthesized: offset after "/>"
		{xmltok.EndElement, 19, ""},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %+v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].kind != w.kind || toks[i].off != w.off {
			t.Errorf("token %d: got %v@%d, want %v@%d", i, toks[i].kind, toks[i].off, w.kind, w.off)
		}
		if w.data != "" && toks[i].data != w.data {
			t.Errorf("token %d data: got %q, want %q", i, toks[i].data, w.data)
		}
	}
	if diff := xmltok.CompareDoc([]byte(doc), nil); diff != "" {
		t.Errorf("parity: %s", diff)
	}
}

// TestCDATAAdjacency checks that adjacent text runs and CDATA sections
// stay separate CharData tokens (the shredder trims per token), that
// empty CDATA sections still produce a token, and that each token's
// offset is the '<' of its CDATA marker or the first text byte.
func TestCDATAAdjacency(t *testing.T) {
	doc := `<a>one<![CDATA[two]]>three<![CDATA[]]><![CDATA[ four ]]></a>`
	toks, err := fastToks(t, doc)
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	var offs []int64
	for _, tok := range toks {
		if tok.kind == xmltok.CharData {
			texts = append(texts, tok.data)
			offs = append(offs, tok.off)
		}
	}
	wantTexts := []string{"one", "two", "three", "", " four "}
	if fmt.Sprint(texts) != fmt.Sprint(wantTexts) {
		t.Errorf("char data runs: got %q, want %q", texts, wantTexts)
	}
	wantOffs := []int64{3, 6, 21, 26, 38}
	if fmt.Sprint(offs) != fmt.Sprint(wantOffs) {
		t.Errorf("char data offsets: got %v, want %v", offs, wantOffs)
	}
	if diff := xmltok.CompareDoc([]byte(doc), nil); diff != "" {
		t.Errorf("parity: %s", diff)
	}
}

// TestBracketBracketGT: "]]>" is an error in plain text, a terminator in
// CDATA, and allowed inside quoted attribute values.
func TestBracketBracketGT(t *testing.T) {
	for _, tc := range []struct {
		doc string
		ok  bool
	}{
		{`<a>]]></a>`, false},
		{`<a>]] ></a>`, true},
		{`<a>]]&gt;</a>`, true},
		{`<a b="]]>"/>`, true},
		{`<a><![CDATA[x]]>]]></a>`, false}, // second ]]> is back in plain text
		{`<a><![CDATA[a]b]]c]]]></a>`, true},
	} {
		toks, err := fastToks(t, tc.doc)
		if tc.ok && err != nil {
			t.Errorf("%q: unexpected error %v (toks %+v)", tc.doc, err, toks)
		}
		if !tc.ok && err == nil {
			t.Errorf("%q: expected error, got %+v", tc.doc, toks)
		}
		if diff := xmltok.CompareDoc([]byte(tc.doc), nil); diff != "" {
			t.Errorf("%q parity: %s", tc.doc, diff)
		}
	}
	// CDATA terminator truncation: content is everything before the
	// first raw "]]>".
	toks, err := fastToks(t, `<a><![CDATA[a]b]]c]]]></a>`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].data != "a]b]]c]" {
		t.Errorf("cdata data: got %q, want %q", toks[1].data, "a]b]]c]")
	}
}

// TestAttributeQuoteVariants covers single/double quotes, embedded
// opposite quotes, entities and CR normalization inside values, and the
// strict-mode rejections (unquoted values, missing '=').
func TestAttributeQuoteVariants(t *testing.T) {
	toks, err := fastToks(t, `<a one="d'q" two='s"q' three="&amp;&#x27;" four="a`+"\r\n"+`b"/>`)
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"one", "d'q"}, {"two", `s"q`}, {"three", "&'"}, {"four", "a\nb"}}
	if fmt.Sprint(toks[0].attrs) != fmt.Sprint(want) {
		t.Errorf("attrs: got %q, want %q", toks[0].attrs, want)
	}
	for _, bad := range []string{`<a b=c/>`, `<a b/>`, `<a b="x<y"/>`, `<a b="unterminated`} {
		if _, err := fastToks(t, bad); err == nil {
			t.Errorf("%q: expected error", bad)
		}
		if diff := xmltok.CompareDoc([]byte(bad), nil); diff != "" {
			t.Errorf("%q parity: %s", bad, diff)
		}
	}
}

// TestNumericCharRefs pins the stdlib's exact charref semantics: decimal
// and hex forms, the missing-semicolon rejection, overflow rejection,
// and the surrogate-to-U+FFFD rune conversion (accepted, not an error).
func TestNumericCharRefs(t *testing.T) {
	for _, tc := range []struct {
		doc  string
		ok   bool
		data string
	}{
		{`<a>&#65;&#x42;</a>`, true, "AB"},
		{`<a>&#x1F388;</a>`, true, "🎈"},
		{`<a>&#xD800;</a>`, true, "�"}, // surrogate: rune conversion, not an error
		{`<a>&#1114111;</a>`, true, "\U0010FFFF"},
		{`<a>&#1114112;</a>`, false, ""}, // MaxRune + 1
		{`<a>&#65</a>`, false, ""},       // no semicolon
		{`<a>&#;</a>`, false, ""},        // no digits
		{`<a>&#x;</a>`, false, ""},
		{`<a>&#18446744073709551616;</a>`, false, ""}, // uint64 overflow
		{`<a>&#13;x</a>`, true, "\rx"},                // charref CR is not normalized
	} {
		toks, err := fastToks(t, tc.doc)
		if tc.ok {
			if err != nil {
				t.Errorf("%q: unexpected error %v", tc.doc, err)
				continue
			}
			if toks[1].data != tc.data {
				t.Errorf("%q: data %q, want %q", tc.doc, toks[1].data, tc.data)
			}
		} else if err == nil {
			t.Errorf("%q: expected error", tc.doc)
		}
		if diff := xmltok.CompareDoc([]byte(tc.doc), nil); diff != "" {
			t.Errorf("%q parity: %s", tc.doc, diff)
		}
	}
}

// TestDTDRejectionTyped: DTD internal subsets and directives are a typed
// *xmltok.UnsupportedError in BOTH decoders — never silently mis-parsed.
func TestDTDRejectionTyped(t *testing.T) {
	docs := []string{
		`<!DOCTYPE html><a/>`,
		`<!DOCTYPE r [ <!ENTITY x "y"> ]><r>&x;</r>`,
		`<!ENTITY % p "v">`,
		`<!DOCTYPE r [ <!-- comment --> <!ELEMENT r EMPTY> ]><r/>`,
	}
	for _, doc := range docs {
		for _, decoder := range []string{xmltok.DecoderFast, xmltok.DecoderStd} {
			src, err := xmltok.Open(decoder, strings.NewReader(doc), nil)
			if err != nil {
				t.Fatal(err)
			}
			_, err = drain(src)
			var ue *xmltok.UnsupportedError
			if !errors.As(err, &ue) {
				t.Errorf("%s decoder, %q: got %v, want *UnsupportedError", decoder, doc, err)
			}
			var te *xmltok.Error
			if !errors.As(err, &te) || te.Offset != 0 {
				t.Errorf("%s decoder, %q: want *xmltok.Error at offset 0, got %v", decoder, doc, err)
			}
		}
	}
	// A truncated directive is an EOF-class syntax error in both, like
	// the stdlib.
	for _, decoder := range []string{xmltok.DecoderFast, xmltok.DecoderStd} {
		src, _ := xmltok.Open(decoder, strings.NewReader(`<!DOCTYPE r [`), nil)
		_, err := drain(src)
		var se *xml.SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%s decoder: truncated directive: got %v, want *xml.SyntaxError", decoder, err)
		}
	}
}

func drain(src xmltok.Source) (int, error) {
	n := 0
	for {
		_, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		n++
	}
}

// TestSyntaxErrorsTyped: malformed XML surfaces as *xmltok.Error
// wrapping the stdlib's *xml.SyntaxError concrete type, so errors.As
// works identically on either decoding path.
func TestSyntaxErrorsTyped(t *testing.T) {
	for _, doc := range []string{
		`<a>`, `<a></b>`, `</a>`, `<a`, `<a b`, `<1/>`, `<a:b:c/>`,
		`<a><!- x --></a>`, `<a><![CDAT[x]]></a>`, `<a><!-- -- --></a>`,
		`<a>&bogus;</a>`, `<a>&lt</a>`, `<a x="1" x=</a>`,
	} {
		_, err := fastToks(t, doc)
		if err == nil {
			t.Errorf("%q: expected error", doc)
			continue
		}
		var se *xml.SyntaxError
		if !errors.As(err, &se) {
			t.Errorf("%q: got %T (%v), want wrapped *xml.SyntaxError", doc, err, err)
		}
		var te *xmltok.Error
		if !errors.As(err, &te) {
			t.Errorf("%q: not an *xmltok.Error: %v", doc, err)
		}
		if diff := xmltok.CompareDoc([]byte(doc), nil); diff != "" {
			t.Errorf("%q parity: %s", doc, diff)
		}
	}
}

// TestXMLDeclChecks: any <?xml ...?> is version/encoding-validated, like
// the stdlib; bad declarations are plain (non-syntax) errors in both.
func TestXMLDeclChecks(t *testing.T) {
	for _, tc := range []struct {
		doc string
		ok  bool
	}{
		{`<?xml version="1.0"?><a/>`, true},
		{`<?xml version="1.0" encoding="UTF-8"?><a/>`, true},
		{`<?xml version="1.0" encoding="utf-8"?><a/>`, true},
		{`<?xml?><a/>`, true},
		{`<?xml version="2.0"?><a/>`, false},
		{`<?xml version="1.0" encoding="latin-1"?><a/>`, false},
		{`<a/><?xml version="2.0"?>`, false}, // checked anywhere in the doc
		{`<?xmlx version="2.0"?><a/>`, true}, // target is not "xml"
	} {
		_, err := fastToks(t, tc.doc)
		if tc.ok != (err == nil) {
			t.Errorf("%q: ok=%v, err=%v", tc.doc, tc.ok, err)
		}
		if diff := xmltok.CompareDoc([]byte(tc.doc), nil); diff != "" {
			t.Errorf("%q parity: %s", tc.doc, diff)
		}
	}
}

// TestLabelFusion: start tokens carry the interner's code for their
// local name directly, and NoCode for labels outside the universe.
func TestLabelFusion(t *testing.T) {
	in := xpath.NewInterner()
	bookCode := in.InternLabel("book")
	titleCode := in.InternLabel("title")
	doc := `<r><book><title>X</title><other/></book></r>`
	for _, decoder := range []string{xmltok.DecoderFast, xmltok.DecoderStd} {
		src, err := xmltok.Open(decoder, strings.NewReader(doc), in)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]uint32{}
		for {
			tok, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if tok.Kind == xmltok.StartElement {
				got[tok.Label] = tok.Code
			}
		}
		if got["book"] != bookCode || got["title"] != titleCode {
			t.Errorf("%s: book=%d (want %d), title=%d (want %d)", decoder, got["book"], bookCode, got["title"], titleCode)
		}
		if got["other"] != xmltok.NoCode || got["r"] != xmltok.NoCode {
			t.Errorf("%s: out-of-universe labels should be NoCode: %v", decoder, got)
		}
	}
}

// TestViewLifetimeAndReset: views are valid until the next advance, a
// Reset tokenizer re-reads from offset 0, and tiny read chunks (forcing
// fills and compactions mid-token) change nothing.
func TestViewLifetimeAndReset(t *testing.T) {
	doc := strings.Repeat("<a key=\"v&amp;w\">text</a>", 200)
	doc = "<root>" + doc + "</root>"
	tk := xmltok.New(onebyte{strings.NewReader(doc)}, nil)
	ref, err := collect(t, xmltok.New(strings.NewReader(doc), nil))
	if err != nil {
		t.Fatal(err)
	}
	got, err := collect(t, tk)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(ref) {
		t.Fatal("one-byte reads changed the token stream")
	}
	tk.Reset(strings.NewReader(doc))
	got2, err := collect(t, tk)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got2) != fmt.Sprint(ref) {
		t.Fatal("Reset tokenizer diverged")
	}
}

type onebyte struct{ r io.Reader }

func (o onebyte) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

// TestReaderErrorMidToken: a reader failure with (n>0, err) semantics
// surfaces after the buffered bytes are consumed, not as a token-loss.
func TestReaderErrorMidToken(t *testing.T) {
	boom := errors.New("boom")
	doc := `<a><b/><c`
	src := xmltok.New(io.MultiReader(strings.NewReader(doc), errReader{boom}), nil)
	var kinds []xmltok.Kind
	var err error
	for {
		var tok *xmltok.Token
		tok, err = src.Next()
		if err != nil {
			break
		}
		kinds = append(kinds, tok.Kind)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want wrapped boom", err)
	}
	if len(kinds) != 3 { // <a>, <b>, </b>
		t.Fatalf("tokens before failure: %v", kinds)
	}
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// TestHugeTokenGrowsWindow: a single token larger than the initial
// window must grow the buffer, not split or corrupt the token.
func TestHugeTokenGrowsWindow(t *testing.T) {
	big := strings.Repeat("x", 100<<10)
	doc := "<a>" + big + "</a>"
	toks, err := fastToks(t, doc)
	if err != nil {
		t.Fatal(err)
	}
	if toks[1].data != big {
		t.Fatalf("big text token corrupted: len=%d want %d", len(toks[1].data), len(big))
	}
	if toks[2].off != int64(3+len(big)) {
		t.Fatalf("end offset %d, want %d", toks[2].off, 3+len(big))
	}
}

// TestWhitespaceAndMisc pins smaller behaviors the consumers rely on:
// whitespace-only CharData is emitted, text outside the root is legal at
// the tokenizer layer, multiple roots are legal at the tokenizer layer,
// and duplicate attributes are not rejected (all matching stdlib).
func TestWhitespaceAndMisc(t *testing.T) {
	for _, doc := range []string{
		"  <a/>  ",
		"<a/><b/>",
		`<a x="1" x="2"/>`,
		"<a>\n  <b/>\n</a>",
		"\uFEFF<a/>", // BOM is plain char data to stdlib; no special-casing
	} {
		if diff := xmltok.CompareDoc([]byte(doc), nil); diff != "" {
			t.Errorf("%q: %s", doc, diff)
		}
	}
	toks, err := fastToks(t, "<a>\n  <b/>\n</a>")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, tok := range toks {
		if tok.kind == xmltok.CharData {
			n++
		}
	}
	if n != 2 {
		t.Errorf("whitespace-only char data runs: got %d, want 2", n)
	}
}

// TestOpenUnknownDecoder: the decoder selector rejects unknown names.
func TestOpenUnknownDecoder(t *testing.T) {
	if _, err := xmltok.Open("turbo", strings.NewReader("<a/>"), nil); err == nil {
		t.Fatal("expected error for unknown decoder")
	}
	if src, err := xmltok.Open("", strings.NewReader("<a/>"), nil); err != nil || src == nil {
		t.Fatalf("empty decoder name must default to fast: %v", err)
	}
}

// TestTokenizerSteadyStateAllocs is the allocation gate behind
// BENCH_tokenizer.json: after a warm-up pass, re-tokenizing a document
// through Reset allocates nothing per token.
func TestTokenizerSteadyStateAllocs(t *testing.T) {
	doc := []byte(paperdata.Fig1XML)
	rd := bytes.NewReader(doc)
	tk := xmltok.New(rd, nil)
	pass := func() {
		rd.Reset(doc)
		tk.Reset(rd)
		for {
			_, err := tk.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // warm up buffers and the label cache
	avg := testing.AllocsPerRun(100, pass)
	if avg != 0 {
		t.Fatalf("steady-state allocs per document pass: got %v, want 0", avg)
	}
}
