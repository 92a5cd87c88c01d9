package cli

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"

	"xkprop/internal/paperdata"
	"xkprop/internal/workload"
	"xkprop/internal/xmltok"
	"xkprop/internal/xpath"
)

// This file implements xkbench's tokenizer suite: the zero-copy XML
// tokenizer against the encoding/xml oracle over the paper document and
// the workload grid. Every cell's set-up first holds the two decoders to
// token-for-token agreement (xmltok.CompareDoc). The fast cells run in
// the ingest plane's steady state: one tokenizer reused via Reset.

// tokenizerSuite's headline gate: steady-state fast tokenization (reader
// and tokenizer reused via Reset, label cache warm) allocates nothing.
var tokenizerSuite = benchSuite{
	name:  "tokenizer",
	cells: tokenizerCells,
	gates: []benchGate{
		gateOneOf("op", "tok_fast", "tok_std"),
		gateRange("tokens", 1, math.Inf(1)),
		gateRange("doc_bytes", 1, math.Inf(1)),
		gateOneOf("agrees", true),
		gateRange("allocs_per_op", 0, 0, benchVal{"op", "tok_fast"}),
	},
}

// tokenizerCells measure the paper's Fig 1 document plus workload
// documents spanning flat, deep and wide rule shapes.
func tokenizerCells() []benchCell {
	var cells []benchCell
	for _, c := range []struct {
		doc    string
		cfg    workload.Config // unused for fig1
		fanout int
	}{
		{"fig1", workload.Config{}, 0},
		{"fields=8/fanout=4", workload.Config{Fields: 8, Depth: 2, Keys: 4}, 4},
		{"fields=12/fanout=6", workload.Config{Fields: 12, Depth: 3, Keys: 6}, 6},
		{"fields=15/fanout=2", workload.Config{Fields: 15, Depth: 5, Keys: 10}, 2},
	} {
		for _, op := range []string{"tok_fast", "tok_std"} {
			cells = append(cells, benchCell{
				name:   fmt.Sprintf("Tokenizer/%s/%s", c.doc, op),
				params: []benchVal{{"doc", c.doc}},
				op:     op,
				setup: func() ([]benchVal, func(*testing.B), error) {
					doc := paperdata.Fig1XML
					if c.doc != "fig1" {
						doc = workload.Generate(c.cfg).Document(c.fanout).XMLString()
					}
					return tokSetup([]byte(doc), op)
				},
			})
		}
	}
	return cells
}

// tokSetup checks decoder parity on doc and counts its tokens. Its facts
// are the token count, the input size and the parity verdict.
func tokSetup(doc []byte, op string) ([]benchVal, func(*testing.B), error) {
	if diff := xmltok.CompareDoc(doc, nil); diff != "" {
		return nil, nil, fmt.Errorf("tokenizer parity: %s", diff)
	}
	tokens, err := tokDrain(xmltok.New(bytes.NewReader(doc), nil))
	if err != io.EOF {
		return nil, nil, err
	}
	facts := []benchVal{{"tokens", tokens}, {"doc_bytes", len(doc)}, {"agrees", true}}
	stdIn := xpath.NewInterner()
	drain := func() (int64, error) { return tokDrain(xmltok.NewStd(bytes.NewReader(doc), stdIn)) }
	if op == "tok_fast" {
		rd := bytes.NewReader(doc)
		tk := xmltok.New(rd, xpath.NewInterner())
		drain = func() (int64, error) {
			rd.Reset(doc)
			tk.Reset(rd)
			return tokDrain(tk)
		}
	}
	return facts, func(b *testing.B) {
		b.SetBytes(int64(len(doc)))
		for i := 0; i < b.N; i++ {
			if _, err := drain(); err != io.EOF {
				b.Fatal(err)
			}
		}
	}, nil
}

// tokDrain reads src until it fails and returns its token count and
// the error that ended it, io.EOF at the end of a well-formed document.
// Leaving io.EOF to the caller keeps tokDrain within the inliner's
// budget, so the std benchmark body's source stays on the stack.
func tokDrain(src xmltok.Source) (n int64, err error) {
	for ; err == nil; n++ {
		_, err = src.Next()
	}
	return n - 1, err
}
