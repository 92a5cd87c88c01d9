package rel

import (
	"bufio"
	"strings"
	"testing"
)

// TestCSVEscape pins RFC 4180 field escaping by WriteCSVField: commas,
// double quotes, CR and LF force quoting with embedded quotes doubled;
// everything else passes through verbatim. All fields go through one
// small buffer, so long ones straddle its flushes.
func TestCSVEscape(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"", ""},
		{"plain", "plain"},
		{"with space", "with space"},
		{"a,b", `"a,b"`},
		{`say "hi"`, `"say ""hi"""`},
		{"line\nbreak", "\"line\nbreak\""},
		{"line\rreturn", "\"line\rreturn\""},
		{"crlf\r\nend", "\"crlf\r\nend\""},
		{`,`, `","`},
		{`"`, `""""`},
		{`a,"b",c`, `"a,""b"",c"`},
		{`""quotes "" all "" the way""`, `"""""quotes """" all """" the way"""""`},
		{"unicode ✓", "unicode ✓"},
		{"semi;colon", "semi;colon"},
	}
	var b strings.Builder
	w := bufio.NewWriterSize(&b, 16)
	for _, c := range cases {
		b.Reset()
		w.Reset(&b)
		WriteCSVField(w, c.in)
		w.Flush()
		if b.String() != c.want {
			t.Errorf("WriteCSVField(%q) wrote %q, want %q", c.in, b.String(), c.want)
		}
	}
}

// TestCSVQuotedFields runs a relation whose values hold every special
// character through the full CSV render: the output must quote them and
// keep NULL as the empty field.
func TestCSVQuotedFields(t *testing.T) {
	s := MustSchema("t", "a,x", "b")
	r := NewRelation(s)
	r.MustInsert(Tuple{V(`comma,quote"`), NullValue})
	r.MustInsert(Tuple{V("multi\r\nline"), V("plain")})
	got := r.CSV()
	want := `"a,x",b` + "\n" +
		`"comma,quote""",` + "\n" +
		"\"multi\r\nline\",plain\n"
	if got != want {
		t.Errorf("CSV:\n%q\nwant:\n%q", got, want)
	}
	if strings.Count(got, `""""`) != 0 {
		// sanity: the embedded quote renders as "" inside a quoted field,
		// not as a run of four quotes.
		t.Errorf("unexpected quote run in %q", got)
	}
}
