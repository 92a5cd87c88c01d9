package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// textWords is TextDocument's ASCII vocabulary; textRunes and
// textEntities are the words it mixes in to make a text run multi-byte
// or entity-bearing.
var (
	textWords = strings.Fields(`relational schema key constraint propagation
dependency functional normal form decomposition lossless join closure cover
minimum implication path expression tree document element attribute query
view update storage mapping algorithm polynomial theorem instance database
integrity shredding table rule variable binding null product stream token`)
	textRunes    = strings.Fields(`naïve Gödel Erdős façade Zürich 文書 関係 ключ λ-calculus`)
	textEntities = strings.Fields(`&amp; &lt;key&gt; &quot;null&quot; &#931; &#x3C3;`)
)

// TextDocument generates a text-heavy bibliography document of 16
// articles (about 22 KB) whose lines end in CRLF. Each article has an author with a multi-byte rune, a
// title, an abstract-length text run of 60 to 180 words and a note in a
// CDATA section. The abstracts rotate over three kinds: plain ASCII, one
// word in eight multi-byte, and one word in eight an entity reference.
// Markup is a small share of its bytes, unlike Document's. The output is
// the same on every call.
func TextDocument() string {
	const articles = 16
	r := rand.New(rand.NewSource(articles))
	words := func(b *strings.Builder, n int, mix []string) {
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(' ')
			}
			if mix != nil && r.Intn(8) == 0 {
				b.WriteString(mix[r.Intn(len(mix))])
			} else {
				b.WriteString(textWords[r.Intn(len(textWords))])
			}
		}
	}
	var b strings.Builder
	b.WriteString("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\r\n<dblp>\r\n")
	for a := 0; a < articles; a++ {
		fmt.Fprintf(&b, "<article key=\"journals/tods/a%d\" mdate=\"2003-03-%02d\">\r\n", a, 1+a%28)
		fmt.Fprintf(&b, "  <author>Kurt Gödel %d</author>\r\n  <title>", a)
		words(&b, 6+r.Intn(8), nil)
		b.WriteString("</title>\r\n  <abstract>")
		words(&b, 60+r.Intn(121), [][]string{nil, textRunes, textEntities}[a%3])
		b.WriteString("</abstract>\r\n  <note><![CDATA[if a < b && c > d then ]] stays raw]]></note>\r\n</article>\r\n")
	}
	b.WriteString("</dblp>\r\n")
	return b.String()
}
