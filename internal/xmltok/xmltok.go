// Package xmltok is the ingest plane's zero-copy XML tokenizer. It pulls
// tokens out of a reusable read buffer as byte-slice views — element
// starts and ends, attributes, character data — valid only until the next
// Next call, so a steady-state pass over a document allocates nothing per
// token. The supported surface is exactly what the system consumes:
// elements, attributes, CharData, CDATA, comments, processing
// instructions, the XML declaration, the five predefined entities plus
// numeric character references, UTF-8. Unsupported constructs (DTD
// internal subsets and therefore external entities) are a typed
// *UnsupportedError carrying a byte offset, never a silent mis-parse.
//
// The package ships two implementations of the one Source interface: the
// fast scanner (New) and an encoding/xml adapter (NewStd) retained as the
// differential oracle, in the repo's usual pattern (compiled kernel vs
// recursive oracle, LINCLOSURE vs fixpoint). CompareSources, the xkdiff
// tokenizer lane and FuzzTokenizerParity hold the two to token-for-token
// agreement: kinds, names, labels, attribute name/value pairs after
// unescaping, character data, byte offsets.
//
// Label resolution is fused into tokenization: a start token carries the
// element's local name both as a canonical string (Label, one allocation
// per distinct label ever, then cached) and as the interned code of a
// caller-supplied label universe (Code), so the stream validator and the
// shredding evaluator never re-hash Name.Local per start tag.
package xmltok

import (
	"fmt"
	"io"
)

// Kind discriminates Token.
type Kind uint8

const (
	// StartElement is an opening tag. Name/Space/Local/Label/Code and
	// Attrs are set. A self-closing tag yields StartElement followed by a
	// synthesized EndElement, exactly like encoding/xml.
	StartElement Kind = iota + 1
	// EndElement is a closing tag (Name/Space/Local set).
	EndElement
	// CharData is character data — plain text or one CDATA section — with
	// entities expanded and \r / \r\n rewritten to \n (Data set). Adjacent
	// text runs and CDATA sections are separate tokens, mirroring
	// encoding/xml (the shredding evaluator trims per token).
	CharData
	// Comment is the raw bytes between <!-- and --> (Data set).
	Comment
	// ProcInst is a processing instruction: Name is the target, Data the
	// instruction (Data set).
	ProcInst
)

func (k Kind) String() string {
	switch k {
	case StartElement:
		return "StartElement"
	case EndElement:
		return "EndElement"
	case CharData:
		return "CharData"
	case Comment:
		return "Comment"
	case ProcInst:
		return "ProcInst"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Attr is one attribute of a start tag. All byte slices are views valid
// until the next advance of the Source that produced them.
type Attr struct {
	// Name is the qualified name exactly as written (e.g. "xmlns:x").
	Name []byte
	// Space and Local split Name at its colon under encoding/xml's rules:
	// only a "prefix:local" shape with both parts non-empty splits; "a:"
	// and ":a" keep the full name in Local with an empty Space.
	Space []byte
	Local []byte
	// Value is the attribute value after entity expansion and \r → \n
	// normalization.
	Value []byte
}

// IsNamespaceDecl reports whether the attribute is an xmlns declaration
// (xmlns="..." or xmlns:prefix="..."), the attributes xmltree.Parse makes
// invisible to the shredding evaluator.
func (a *Attr) IsNamespaceDecl() bool {
	return string(a.Space) == "xmlns" || string(a.Local) == "xmlns"
}

// Token is one XML event. Byte-slice fields are views into the Source's
// internal buffers, valid only until the next Next call; Label is a
// stable string.
type Token struct {
	Kind Kind
	// Offset is the byte position of the token's first byte in the input:
	// the '<' of a tag, the first byte of a text run. A synthesized
	// EndElement (self-closing tag) sits at the byte after "/>", matching
	// encoding/xml's InputOffset-before-Token convention.
	Offset int64
	// Name is the qualified element name (start/end) or the PI target.
	Name []byte
	// Space and Local split Name like Attr.Space/Attr.Local.
	Space []byte
	Local []byte
	// Label is the canonical string for Local — allocated once per
	// distinct label and shared across tokens (start elements only).
	Label string
	// Code is the interner's code for Label, or NoCode when the label is
	// outside the compiled universe (start elements only).
	Code uint32
	// Attrs are the start tag's attributes, in document order.
	Attrs []Attr
	// Data is the payload of CharData, Comment and ProcInst tokens.
	Data []byte
}

// Source is the shared pull interface the validator and the shredding
// evaluator consume. Next returns io.EOF at a clean end of input; any
// other failure is a *Error carrying the byte offset. The returned Token
// is owned by the Source and overwritten by the next call.
type Source interface {
	Next() (*Token, error)
}

// LabelInterner resolves a canonical label string to its compiled code.
// *xpath.Interner satisfies it; nil is allowed (every Code is NoCode).
type LabelInterner interface {
	LabelCode(name string) (uint32, bool)
}

// NoCode marks a label outside the interner's universe. It equals
// stream.UnknownLabel: no compiled NFA step can match it, so only "//"
// positions survive such an element.
const NoCode = ^uint32(0)

// Error is a tokenization failure pinned to a byte offset. Err (via
// Unwrap) is the underlying cause: an *encoding/xml.SyntaxError for
// malformed XML (both implementations use the same type, so errors.As
// works identically), an *UnsupportedError for constructs outside the
// supported subset, or the reader's error.
type Error struct {
	Offset int64
	Err    error
}

func (e *Error) Error() string {
	return fmt.Sprintf("xmltok: at byte %d: %v", e.Offset, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// UnsupportedError reports input using a construct the tokenizer
// deliberately does not implement (DTD internal subsets, and with them
// external entity definitions). Both the fast scanner and the std oracle
// reject these — silently mis-parsing entity-defining input would be
// worse than refusing it.
type UnsupportedError struct {
	// Construct names what was seen, e.g. "DTD/directive <!...>".
	Construct string
}

func (e *UnsupportedError) Error() string {
	return "xmltok: unsupported construct: " + e.Construct
}

// Decoder names for Open. Product code calls New; the names select the
// encoding/xml oracle in parity tests and benchmarks.
const (
	DecoderFast = "fast"
	DecoderStd  = "std"
)

// Open builds a Source by decoder name: "fast" (or "") selects the
// zero-copy scanner, "std" the encoding/xml oracle adapter.
func Open(decoder string, r io.Reader, in LabelInterner) (Source, error) {
	switch decoder {
	case "", DecoderFast:
		return New(r, in), nil
	case DecoderStd:
		return NewStd(r, in), nil
	}
	return nil, fmt.Errorf("xmltok: unknown decoder %q (want %s or %s)", decoder, DecoderFast, DecoderStd)
}

// labelCache memoizes local-name bytes → (canonical string, interner
// code). Open addressing with FNV-1a hashing; one string allocation per
// distinct label ever, zero per hit. Both Source implementations share it
// so Label fields are equal strings for equal names.
type labelCache struct {
	in      LabelInterner
	entries []labelEntry
	n       int
}

type labelEntry struct {
	hash  uint32
	label string // "" = empty slot (the empty string is never a label)
	code  uint32
}

func newLabelCache(in LabelInterner) *labelCache {
	return &labelCache{in: in, entries: make([]labelEntry, 64)}
}

func hashBytes(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	// Reserve 0 so hash==0 can't collide with the empty-slot marker probe.
	if h == 0 {
		h = 1
	}
	return h
}

// resolve returns the canonical string and code for a local name given as
// bytes. Empty names (impossible for parsed elements) resolve to ("", NoCode).
func (c *labelCache) resolve(local []byte) (string, uint32) {
	if len(local) == 0 {
		return "", NoCode
	}
	h := hashBytes(local)
	mask := uint32(len(c.entries) - 1)
	i := h & mask
	for {
		e := &c.entries[i]
		if e.label == "" {
			break
		}
		if e.hash == h && e.label == string(local) {
			return e.label, e.code
		}
		i = (i + 1) & mask
	}
	label := string(local)
	code := NoCode
	if c.in != nil {
		if cd, ok := c.in.LabelCode(label); ok {
			code = cd
		}
	}
	c.insert(labelEntry{hash: h, label: label, code: code})
	return label, code
}

func (c *labelCache) insert(e labelEntry) {
	if (c.n+1)*4 >= len(c.entries)*3 {
		old := c.entries
		c.entries = make([]labelEntry, len(old)*2)
		c.n = 0
		for _, oe := range old {
			if oe.label != "" {
				c.insert(oe)
			}
		}
	}
	mask := uint32(len(c.entries) - 1)
	i := e.hash & mask
	for c.entries[i].label != "" {
		i = (i + 1) & mask
	}
	c.entries[i] = e
	c.n++
}

// splitName applies encoding/xml's nsname splitting to a qualified name
// already known to contain at most one colon: only "prefix:local" with
// both parts non-empty splits; otherwise the whole name is Local.
func splitName(name []byte) (space, local []byte) {
	for i, b := range name {
		if b == ':' {
			if i > 0 && i < len(name)-1 {
				return name[:i], name[i+1:]
			}
			break
		}
	}
	return nil, name
}
