package xmltok_test

import (
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"xkprop/internal/workload"
	"xkprop/internal/xmltok"
)

// Tests of the text scan's run skipping: runs of ordinary bytes are
// skipped within the buffered window, so every construct that ends a run
// must behave the same wherever a read or the window splits it.

// readers split the input three ways: whole, a byte per read, and half
// of each requested read.
var readers = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
}

// compareSplit holds the fast tokenizer, reading doc through every
// reader, to the std oracle reading it whole, and to the fast
// tokenizer reading it whole on the error it ends with, if any.
func compareSplit(t *testing.T, doc string) {
	t.Helper()
	_, wantErr := drain(xmltok.New(strings.NewReader(doc), nil))
	for _, rd := range readers {
		fast := xmltok.New(rd.wrap(strings.NewReader(doc)), nil)
		if diff := xmltok.CompareSources(fast, xmltok.NewStd(strings.NewReader(doc), nil)); diff != "" {
			t.Errorf("%s reads of %.40q...: %s", rd.name, doc, diff)
		}
		_, err := drain(xmltok.New(rd.wrap(strings.NewReader(doc)), nil))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s reads of %.40q...: error %v, want %v", rd.name, doc, err, wantErr)
		}
	}
}

// TestTextRunsStraddleReads: text runs, entity references, "]]>", CR LF
// and multi-byte runes read the same when reads split them anywhere.
func TestTextRunsStraddleReads(t *testing.T) {
	for _, doc := range []string{
		"<a>plain text run &amp; more &lt;&#65;&#x3C3;&quot;&apos;&gt; text</a>",
		"<a>one]two]]three]] ]]</a>",
		"<a>text]]>bad</a>",
		"<a><![CDATA[x]]]]><![CDATA[>]]y]] < & ' \"]]>z</a>",
		"<a>line\r\nline\rline\n\r\r\nend\r</a>\r\n",
		"<a>naïve 文字 🎈 ключ &#x1F388;</a>",
		`<a k="v &amp; w" q='it"s' r="a]]>b" s="x&#13;y">t 'q' "d"</a>`,
		"<a>\r\n  <b>Gödel &amp; Erdős\r\n  </b>\r\n</a>",
		"<a>trailing text &amp",
		"<a>bad &bogus; ref</a>",
		"<a>x\x01y</a>",
		"<a>x\xffy</a>",
		"<a>\xe6\x96</a>",
		"<a><![CDATA[unterminated ]]",
	} {
		compareSplit(t, doc)
	}
}

// TestTextRunOutgrowsWindow: one text run longer than the 32 KB window,
// starting after 20 KB of markup, so the window compacts and then
// doubles mid-run, clean, rewritten (an entity near its start, CR LF
// throughout) and with multi-byte runes.
func TestTextRunOutgrowsWindow(t *testing.T) {
	markup := strings.Repeat("<b k='v'>t</b>", 20<<10/14)
	run := strings.Repeat("abstract text of some length, ", 3000) // 90 KB
	for _, body := range []string{
		run,
		"&amp;" + run + "&#x3C3;",
		strings.ReplaceAll(run, ", ", ",\r\n"),
		strings.ReplaceAll(run, "some", "sōme 文字"),
		"<![CDATA[" + run + "]]]]>",
	} {
		doc := "<r>" + markup + "<a>" + body + "</a></r>"
		compareSplit(t, doc)
		attr := "<r>" + markup + "<a v='" + strings.ReplaceAll(body, "<", "&lt;") + "'/></r>"
		compareSplit(t, attr)
	}
}

// TestCheckCharsAfterLongRun: a byte outside the XML character range,
// or invalid UTF-8, after a 40 KB ASCII run is reported with the message
// and at the offset (the end of the text) the tokenizer has always used:
// these strings were read off the tokenizer before runs were skipped.
func TestCheckCharsAfterLongRun(t *testing.T) {
	run := strings.Repeat("x", 40000)
	for _, tc := range []struct{ doc, want string }{
		{"<a>" + run + "\x01y</a>", "xmltok: at byte 40005: XML syntax error on line 1: illegal character code U+0001"},
		{"<a>" + run + "\xffy</a>", "xmltok: at byte 40005: XML syntax error on line 1: invalid UTF-8"},
		{"<a>" + run + "￾y</a>", "xmltok: at byte 40007: XML syntax error on line 1: illegal character code U+FFFE"},
		{"<a>" + run + "é\x01y</a>", "xmltok: at byte 40007: XML syntax error on line 1: illegal character code U+0001"},
		{`<a v="` + run + "\x01" + `"/>`, "xmltok: at byte 40008: XML syntax error on line 1: illegal character code U+0001"},
		{"<a><![CDATA[" + run + "\x01]]></a>", "xmltok: at byte 40016: XML syntax error on line 1: illegal character code U+0001"},
		{"<a>" + strings.Repeat("line\n", 8000) + "\x0b</a>", "xmltok: at byte 40004: XML syntax error on line 8001: illegal character code U+000B"},
		{"<a>&amp;" + run + "\x01</a>", "xmltok: at byte 40009: XML syntax error on line 1: illegal character code U+0001"},
		{"<a>\r\n" + run + "\xc3</a>", "xmltok: at byte 40006: XML syntax error on line 2: invalid UTF-8"},
		{"<a>" + run + "&#1;" + run + "</a>", "xmltok: at byte 80007: XML syntax error on line 1: illegal character code U+0001"},
		{"<a>" + run + "\x01", "xmltok: at byte 40004: XML syntax error on line 1: illegal character code U+0001"},
		{"<r>" + strings.Repeat("<b>t</b>", 3000) + "<c>" + run + run + "\x1f</c></r>", "xmltok: at byte 104007: XML syntax error on line 1: illegal character code U+001F"},
	} {
		for _, rd := range readers {
			_, err := drain(xmltok.New(rd.wrap(strings.NewReader(tc.doc)), nil))
			if fmt.Sprint(err) != tc.want {
				t.Errorf("%s reads of %.20q...: got %v, want %s", rd.name, tc.doc, err, tc.want)
			}
		}
		if diff := xmltok.CompareDoc([]byte(tc.doc), nil); diff != "" {
			t.Errorf("%.20q...: %s", tc.doc, diff)
		}
	}
}

// TestTextDocumentParity: the text-heavy benchmark document tokenizes
// as the oracle does, however it is read.
func TestTextDocumentParity(t *testing.T) {
	compareSplit(t, workload.TextDocument())
}
