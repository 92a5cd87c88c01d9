package main

// Seeded input generators for the four workloads. Every generator takes
// its randomness from one *rand.Rand built from --seed, so the same seed
// yields byte-identical inputs (TestGeneratorsDeterministic). Document
// sizes sit at fixed quantiles of their distribution and only their order
// and content depend on the seed, so two seeds produce corpora of the same
// shape and nearly the same cost, and the run-to-run spread of the
// end-to-end metrics stays small.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"xkprop/internal/rel"
	"xkprop/internal/transform"
	"xkprop/internal/workload"
	"xkprop/internal/xmlkey"
)

// bibKeys is the key set of the DBLP-shaped bibliography: journals keyed
// by name, volumes by number within a journal, articles by key within a
// volume, authors by position within an article, and the single-valued
// article fields keyed by the empty attribute set. %[1]s is a label
// suffix, empty for the bulk corpus and fresh per request for the serve
// workload's cold share.
const bibKeys = `(ε, (//journal%[1]s, {@name}))
(//journal%[1]s, (publisher, {}))
(//journal%[1]s, (volume, {@number}))
(//journal%[1]s/volume, (article, {@key}))
(//journal%[1]s/volume/article, (title, {}))
(//journal%[1]s/volume/article, (pages, {}))
(//journal%[1]s/volume/article, (abstract, {}))
(//journal%[1]s/volume/article, (author, {@pos}))
`

// bibRules is the 4-rule transformation of the bibliography. The author
// rule reads the name from the DBLP-style <author pos="1">Name</author>
// element itself; a field variable must be a leaf, so @pos keys the
// author without being a column.
const bibRules = `rule journal(name: jn, publisher: jp) {
  j := root / //journal%[1]s
  jn := j / @name
  jp := j / publisher
}
rule volume(journal: jn, number: vn, year: vy) {
  j := root / //journal%[1]s
  jn := j / @name
  v := j / volume
  vn := v / @number
  vy := v / @year
}
rule article(journal: jn, volume: vn, key: ak, title: at, pages: ap, abstract: ab) {
  j := root / //journal%[1]s
  jn := j / @name
  v := j / volume
  vn := v / @number
  a := v / article
  ak := a / @key
  at := a / title
  ap := a / pages
  ab := a / abstract
}
rule author(journal: jn, volume: vn, article: ak, name: u) {
  j := root / //journal%[1]s
  jn := j / @name
  v := j / volume
  vn := v / @number
  a := v / article
  ak := a / @key
  u := a / author
}
`

// bibSchema returns the key-set and transformation texts for a label
// suffix ("" for the bulk corpus).
func bibSchema(suffix string) (keys, rules string) {
	return fmt.Sprintf(bibKeys, suffix), fmt.Sprintf(bibRules, suffix)
}

// bibCovers is the propagated minimum cover of each bibliography rule as
// the key set implies it: a journal's publisher, a volume's year and an
// article's title, pages and abstract are single-valued below the keyed
// node, and an author, keyed by a position that is not a column,
// determines nothing. The set-up checks the program's covers against it.
var bibCovers = map[string][]string{
	"journal": {"name -> publisher"},
	"volume":  {"journal, number -> year"},
	"article": {"journal, volume, key -> title", "journal, volume, key -> pages", "journal, volume, key -> abstract"},
	"author":  nil,
}

// bibFDsPerDup is the FD violations one planted duplicate causes: it
// shares journal, volume and key with the article it duplicates and
// differs on title, pages and abstract, so it violates each article FD of
// bibCovers once.
var bibFDsPerDup = len(bibCovers["article"])

// checkBibCovers compares each rule's cover with bibCovers.
func checkBibCovers(tr *transform.Transformation, covers map[string][]rel.FD) error {
	for name, texts := range bibCovers {
		rule := tr.Rule(name)
		if rule == nil {
			return fmt.Errorf("no rule %s", name)
		}
		var want []rel.FD
		for _, t := range texts {
			fd, err := rel.ParseFD(rule.Schema, t)
			if err != nil {
				return err
			}
			want = append(want, fd)
		}
		if !rel.EquivalentCovers(covers[name], want) {
			return fmt.Errorf("table %s: cover is not equivalent to %v", name, texts)
		}
	}
	return nil
}

// bibProbes are the design probes for the article rule: the first is
// propagated from the keys, the second is not.
const bibProbeTrue, bibProbeFalse = "journal, volume, key -> title", "title -> key"

// doc is one generated input document with the counts the generator
// knows it must produce.
type doc struct {
	xml []byte
	// tables is the expected deduplicated tuple count per table.
	tables map[string]int64
	// keyViolations is the expected number of stream key violations.
	keyViolations int
	// dups is the number of planted duplicate articles; the expected FD
	// violation count is dups times bibFDsPerDup.
	dups int
}

var words = strings.Fields(`relational schema key constraint propagation
dependency functional normal form decomposition lossless join closure
cover minimum implication path expression tree document element attribute
query view update storage mapping algorithm complexity polynomial
exponential bound proof lemma theorem instance database integrity
semantic transformation shredding table rule variable binding null
product stream parser token validator index hash cache memory disk
latency throughput consistency inference axiom reasoning context target
absolute relative existence uniqueness containment automaton`)

// logQuantiles returns n values whose logarithms sit at the midpoints of
// n equal strata of [log lo, log hi], in a seeded order.
func logQuantiles(r *rand.Rand, n int, lo, hi float64) []int {
	out := make([]int, n)
	a, b := math.Log(lo), math.Log(hi)
	for i := range out {
		u := (float64(i) + 0.5) / float64(n)
		out[i] = int(math.Round(math.Exp(a + u*(b-a))))
	}
	r.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// text writes n seeded words, optionally wrapping one run in an inline
// element to make the field mixed content.
func text(b *bytes.Buffer, r *rand.Rand, n int, inline string) {
	mark := -1
	if inline != "" && n > 3 && r.Intn(3) == 0 {
		mark = r.Intn(n - 2)
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		if i == mark {
			fmt.Fprintf(b, "<%s>", inline)
		}
		w := words[r.Intn(len(words))]
		if w == "join" && r.Intn(4) == 0 {
			w = "join &amp; merge"
		}
		b.WriteString(w)
		if i == mark+1 && mark >= 0 {
			fmt.Fprintf(b, "</%s>", inline)
		}
	}
}

// bibDoc generates one bibliography document with the given number of
// articles. dupEvery > 0 plants a duplicate of every dupEvery-th article,
// starting at the middle of the first dupEvery, at the same positions for
// every seed: same key and authors, different title, pages and abstract.
func bibDoc(r *rand.Rand, tag string, articles int, dupEvery int) doc {
	d := doc{tables: map[string]int64{}}
	var b bytes.Buffer
	b.WriteString("<dblp>\n")
	journals := 1 + articles/400
	left := articles
	for j := 0; j < journals; j++ {
		n := left / (journals - j)
		left -= n
		fmt.Fprintf(&b, "<journal name=\"%s-j%d\"><publisher>", tag, j)
		text(&b, r, 2+r.Intn(3), "")
		b.WriteString("</publisher>\n")
		d.tables["journal"]++
		for vol := 1; n > 0; vol++ {
			per := 5 + r.Intn(36)
			if per > n {
				per = n
			}
			n -= per
			fmt.Fprintf(&b, "<volume number=\"%d\" year=\"%d\">\n", vol, 1970+r.Intn(55))
			d.tables["volume"]++
			for a := 0; a < per; a++ {
				// Names are distinct within an article, so every author is
				// one tuple of the author table.
				nAuthors := 1 + r.Intn(5)
				authors := make([]string, 0, nAuthors)
				seen := map[string]bool{}
				for len(authors) < nAuthors {
					a := fmt.Sprintf("%s %c. %s", capital(words[r.Intn(len(words))]),
						'A'+rune(r.Intn(26)), capital(words[r.Intn(len(words))]))
					if !seen[a] {
						seen[a] = true
						authors = append(authors, a)
					}
				}
				key := fmt.Sprintf("%s/%d/%d", tag, vol, a)
				writeArticle(&b, r, key, authors, "")
				d.tables["author"] += int64(nAuthors)
				k := d.tables["article"] - int64(d.dups) // originals before this one
				d.tables["article"]++
				if dupEvery > 0 && k%int64(dupEvery) == int64(dupEvery/2) {
					writeArticle(&b, r, key, authors, "Erratum: ")
					d.tables["article"]++
					d.dups++
					d.keyViolations++
				}
			}
			b.WriteString("</volume>\n")
		}
		b.WriteString("</journal>\n")
	}
	b.WriteString("</dblp>\n")
	d.xml = b.Bytes()
	return d
}

func capital(w string) string { return strings.ToUpper(w[:1]) + w[1:] }

// writeArticle writes one article. A non-empty prefix starts its title,
// pages and abstract, so a planted duplicate differs from the original on
// every column but journal, volume and key.
func writeArticle(b *bytes.Buffer, r *rand.Rand, key string, authors []string, prefix string) {
	fmt.Fprintf(b, "<article key=\"%s\">", key)
	for i, a := range authors {
		fmt.Fprintf(b, "<author pos=\"%d\">%s</author>", i+1, a)
	}
	b.WriteString("<title>" + prefix)
	text(b, r, 5+r.Intn(10), "i")
	first := 1 + r.Intn(400)
	fmt.Fprintf(b, "</title><pages>%s%d-%d</pages><abstract>%s", prefix, first, first+1+r.Intn(30), prefix)
	text(b, r, 30+r.Intn(140), "b")
	b.WriteString("</abstract></article>\n")
}

// bulkCorpus is the bulk workload's corpus: 96 documents whose article
// counts sit at 96 log-uniform quantiles between 2 and 1500 (about 2 KB to
// 1.5 MB), with a duplicate of every 400th article, from the 201st on.
func bulkCorpus(r *rand.Rand) []doc {
	sizes := logQuantiles(r, 96, 2, 1500)
	out := make([]doc, len(sizes))
	for i, n := range sizes {
		out[i] = bibDoc(r, fmt.Sprintf("d%d", i), n, 400)
	}
	return out
}

// cartesianConfig is the width-2 table tree of the cartesian workload:
// two chains of depth 3 below the root, four fields each.
var cartesianConfig = workload.Config{Fields: 8, Depth: 3, Keys: 6, Width: 2}

// cartesianFanouts is the fixed multiset of per-chain fanouts; a document
// with fanouts (f0, f1) shreds to (f0·f1)^3 tuples, 729 to 46,656.
var cartesianFanouts = [][2]int{
	{3, 3}, {3, 5}, {4, 4}, {4, 5}, {5, 4}, {5, 5}, {3, 6}, {6, 4},
	{5, 6}, {6, 5}, {4, 7}, {6, 6}, {7, 5}, {3, 4}, {4, 3}, {5, 3},
}

// cartesianCorpus generates width-2 documents for cartesianConfig with
// seeded, globally unique attribute values, so the key set holds and no
// tuple deduplicates: the expected count is exactly (f0·f1)^3.
func cartesianCorpus(r *rand.Rand) []doc {
	order := r.Perm(len(cartesianFanouts))
	out := make([]doc, 0, len(order))
	serial := 0
	for _, oi := range order {
		f := cartesianFanouts[oi]
		var b bytes.Buffer
		b.WriteString("<r>")
		for c := 0; c < 2; c++ {
			var build func(depth int)
			build = func(depth int) {
				if depth > 3 {
					return
				}
				attrs := 1
				if depth == 1 {
					attrs = 2
				}
				for k := 0; k < f[c]; k++ {
					fmt.Fprintf(&b, "<c%dl%d", c, depth)
					for a := 0; a < attrs; a++ {
						serial++
						fmt.Fprintf(&b, " a%d=\"v%x%s\"", a, serial, strings.Repeat("x", r.Intn(6)))
					}
					b.WriteString(">")
					build(depth + 1)
					fmt.Fprintf(&b, "</c%dl%d>", c, depth)
				}
			}
			build(1)
		}
		b.WriteString("</r>\n")
		n := int64(math.Pow(float64(f[0]*f[1]), 3))
		out = append(out, doc{xml: b.Bytes(), tables: map[string]int64{"U": n}})
	}
	return out
}

// schema is one design-workload input: source texts plus the probes.
type schema struct {
	name       string
	keys, dsl  string
	probeRule  string
	probeTrue  string
	probeFalse string
	// docXML is a small document conforming to the schema's keys, shredded
	// once per schema by the soundness check (zero violations expected).
	docXML []byte
	// naive marks schemas narrow enough for the exponential NaiveCover
	// cross-check.
	naive bool
}

// designPool is the §6-grid part of the design workload: a field sweep at
// depth 5, a depth sweep and a key sweep whose BCNF fragments stay at or
// below rel's exact-projection cut-off (18 attributes), chain-keyed wide
// schemas whose fragments (21 and 22 attributes) exceed it and skip exact
// projection, and width-2 trees. Every point takes at most tens of
// milliseconds: fields 40 to 50 at depth 5 (seconds per BCNF) and fields
// 100 at depth 5 (about 100 ms) would dominate the run, and are left out.
var designPool = []workload.Config{
	{Fields: 6, Depth: 2, Keys: 3},
	{Fields: 8, Depth: 3, Keys: 5},
	{Fields: 10, Depth: 5, Keys: 10},
	{Fields: 12, Depth: 4, Keys: 8},
	{Fields: 15, Depth: 5, Keys: 10},
	{Fields: 20, Depth: 5, Keys: 10},
	{Fields: 24, Depth: 5, Keys: 12},
	{Fields: 15, Depth: 2, Keys: 10},
	{Fields: 15, Depth: 8, Keys: 10},
	{Fields: 15, Depth: 5, Keys: 30},
	{Fields: 15, Depth: 5, Keys: 45},
	{Fields: 40, Depth: 2, Keys: 2},
	{Fields: 60, Depth: 3, Keys: 3},
	{Fields: 12, Depth: 3, Keys: 6, Width: 2},
	{Fields: 16, Depth: 2, Keys: 4, Width: 2},
}

// designSet builds the design workload's schema set: every pool point,
// plus bibliography schemas (4 rules) under seeded label suffixes, in a
// seeded order. The seed changes names and order but not the set's cost,
// so design.p50_ms, a median over schemas, does not move with the seed.
func designSet(r *rand.Rand) []schema {
	var out []schema
	for _, cfg := range designPool {
		out = append(out, workloadSchema(workload.Generate(cfg)))
	}
	for i := 0; i < 4; i++ {
		suffix := fmt.Sprintf("%c%d", 'a'+rune(r.Intn(26)), r.Intn(1000))
		keys, dsl := bibSchema(suffix)
		d := bibDoc(r, "s"+suffix, 4, 0)
		xml := bytes.ReplaceAll(d.xml, []byte("journal"), []byte("journal"+suffix))
		out = append(out, schema{
			name: "bib" + suffix, keys: keys, dsl: dsl, probeRule: "article",
			probeTrue: bibProbeTrue, probeFalse: bibProbeFalse, docXML: xml, naive: true,
		})
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// workloadSchema renders a generated §6 workload as source texts.
func workloadSchema(w *workload.Workload) schema {
	c := w.Config
	s := w.Rule.Schema
	fanout := 2
	if c.Depth*c.Width <= 4 {
		fanout = 3
	}
	return schema{
		name:       fmt.Sprintf("f%d_d%d_k%d_w%d", c.Fields, c.Depth, c.Keys, c.Width),
		keys:       keysText(w.Sigma),
		dsl:        w.Rule.DSL(),
		probeRule:  s.Name,
		probeTrue:  w.ProbeTrue.Format(s),
		probeFalse: w.ProbeFalse.Format(s),
		docXML:     []byte(w.Document(fanout).XMLString()),
		naive:      c.Fields <= 12,
	}
}

func keysText(sigma []xmlkey.Key) string {
	var b strings.Builder
	for _, k := range sigma {
		b.WriteString(k.String())
		b.WriteByte('\n')
	}
	return b.String()
}
