package xmltok_test

import (
	"bytes"
	"io"
	"testing"

	"xkprop/internal/workload"
	"xkprop/internal/xmltok"
	"xkprop/internal/xpath"
)

// Tokenization benchmarks: the fast tokenizer against the encoding/xml
// oracle over a representative workload document. tok_fast reuses one
// tokenizer via Reset, which is the steady state the ingest plane runs
// in (zero allocations per document once the label cache is warm). The
// fast tokenizer also reads workload.TextDocument, a text-heavy document
// that xkbench's tokenizer suite measures as its "text" cell.

func benchDoc() []byte {
	return []byte(workload.Generate(workload.Config{Fields: 12, Depth: 3, Keys: 6}).Document(6).XMLString())
}

func benchDrain(b *testing.B, src xmltok.Source) {
	for {
		_, err := src.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTokenizerFast(b *testing.B) {
	for _, c := range []struct {
		name string
		doc  []byte
	}{
		{"workload", benchDoc()},
		{"text", []byte(workload.TextDocument())},
	} {
		b.Run(c.name, func(b *testing.B) {
			in := xpath.NewInterner()
			rd := bytes.NewReader(c.doc)
			tk := xmltok.New(rd, in)
			b.SetBytes(int64(len(c.doc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(c.doc)
				tk.Reset(rd)
				benchDrain(b, tk)
			}
		})
	}
}

func BenchmarkTokenizerStd(b *testing.B) {
	doc := benchDoc()
	in := xpath.NewInterner()
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchDrain(b, xmltok.NewStd(bytes.NewReader(doc), in))
	}
}
