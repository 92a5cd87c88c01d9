// Package stream validates XML keys against a document in streaming
// fashion (one SAX-style pass over xmltok tokens) without materializing
// the tree. The paper's motivating scenario is large, fairly regular XML
// being transmitted for relational import; a consumer can reject a
// non-conforming feed the moment a key breaks, holding in memory only
// the open-element stack and, per active context, the key-value tuples
// seen so far (the minimum any sound checker must retain).
//
// Matching of the path language P ::= ε | l | P/P | // is performed
// incrementally: every path expression compiles to a position-set NFA
// ("//" = a position that may absorb any label) with ε-closures
// precomputed per position, pushed along the element stack, so each
// start-element costs O(|Σ| · depth · |paths|) word operations in the
// worst case and far less in practice.
//
// Tokens come from xmltok's zero-copy scanner. Labels arrive pre-resolved
// to interner codes (Token.Code), the per-element frames and context
// instances are pooled, and paths are rendered only when a violation is
// actually recorded, so steady-state validation of a conforming document
// does not allocate per element.
package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"xkprop/internal/budget"
	"xkprop/internal/xmlkey"
	"xkprop/internal/xmltok"
	"xkprop/internal/xpath"
)

// DecodeError reports the stream breaking mid-document — malformed or
// truncated XML, an unsupported construct, or the underlying io.Reader
// failing. Offset is the byte position of the failure; Err (via Unwrap)
// is the tokenizer's or reader's error, so errors.Is sees
// io.ErrUnexpectedEOF and friends and errors.As sees *xml.SyntaxError
// and *xmltok.UnsupportedError.
type DecodeError struct {
	Offset int64
	Err    error
}

func (e *DecodeError) Error() string {
	return fmt.Sprintf("stream: decode error at offset %d: %v", e.Offset, e.Err)
}

func (e *DecodeError) Unwrap() error { return e.Err }

// Violation is a key violation detected mid-stream.
type Violation struct {
	Key xmlkey.Key
	// Kind mirrors xmlkey's classification.
	Kind xmlkey.ViolationKind
	// Attr is the missing attribute for MissingAttribute violations.
	Attr string
	// Offset is the byte position in the input where the offending target
	// element's start tag begins (the position of its '<').
	Offset int64
	// ContextPath and TargetPath are the concrete label paths from the
	// document root, for diagnostics.
	ContextPath string
	TargetPath  string
}

func (v Violation) String() string {
	name := v.Key.Name
	if name == "" {
		name = v.Key.String()
	}
	switch v.Kind {
	case xmlkey.MissingAttribute:
		return fmt.Sprintf("%s: target /%s (context /%s) at offset %d lacks @%s",
			name, v.TargetPath, v.ContextPath, v.Offset, v.Attr)
	default:
		return fmt.Sprintf("%s: duplicate key values for target /%s under context /%s at offset %d",
			name, v.TargetPath, v.ContextPath, v.Offset)
	}
}

// Validator validates a fixed key set over one streamed document.
type Validator struct {
	keys []compiledKey
	// in is the path universe the key paths were compiled against; the
	// tokenizer resolves element labels to its integer codes (Token.Code),
	// so tokens fed to the validator must come from a Source built over
	// this interner (Run guarantees that; Feed callers must).
	in *xpath.Interner
	// stack of open elements. Frames are reused across pushes: popping
	// only reslices, and pushing reclaims the popped frame's slices.
	stack []frame
	// violations collected so far.
	violations []Violation
	// limit stops collecting after this many violations (0 = no limit).
	limit int
	// maxDepth rejects documents nesting deeper than this many open
	// elements (0 = no cap).
	maxDepth int
	// skipDepth counts open elements entered after the violation limit
	// saturated; they are tracked for stack balance only, with no NFA work.
	skipDepth int
	// ciFree recycles retired context instances (their seen maps cleared
	// but keeping their buckets), so repeated contexts don't churn maps.
	ciFree []*contextInstance
	// scratch is the reusable key-tuple encoding buffer.
	scratch []byte
}

// compiledKey precompiles a key's paths.
type compiledKey struct {
	key     xmlkey.Key
	context PathNFA
	target  PathNFA
}

// UnknownLabel marks an element label the interner has never seen: no
// compiled step can equal it (label codes are >= 1 and it is not DescCode),
// so only "//" positions survive such an element. It equals xmltok.NoCode,
// the code the tokenizer assigns labels outside the compiled universe.
const UnknownLabel = ^uint32(0)

// frame is one open element on the stack.
type frame struct {
	label string
	// ctxPos[i] is key i's context-NFA position set at this element.
	ctxPos []PosSet
	// contexts opened at this element (one per key for which this element
	// is a context node).
	contexts []*contextInstance
	// tgt holds one entry per (active context, live target-NFA set) pair
	// at this element. Dead (empty) sets are dropped on the way down.
	tgt []targetEntry
}

// targetEntry is one active context's target-NFA state at the current
// element.
type targetEntry struct {
	keyIdx int
	ci     *contextInstance
	set    PosSet
}

// contextInstance tracks one context node's key state.
type contextInstance struct {
	keyIdx int
	// depth is len(stack) at creation, its own frame included. The
	// context's label path is rendered from the stack below that depth
	// only when a violation is recorded — never on the hot path.
	depth int
	// seen maps the encoded key-value tuple to true.
	seen map[string]bool
}

// NewValidator compiles the key set against a fresh interner. Keys must
// be of class K̄ (attribute key paths), which the xmlkey type guarantees.
func NewValidator(sigma []xmlkey.Key) *Validator {
	return NewValidatorIn(xpath.NewInterner(), sigma)
}

// NewValidatorIn compiles the key set against an existing interner, for
// callers sharing one label universe across planes — the shredding
// pipeline compiles its rule paths and key paths into the same interner
// and feeds the validator from its own tokenizer Source.
func NewValidatorIn(in *xpath.Interner, sigma []xmlkey.Key) *Validator {
	v := &Validator{in: in}
	for _, k := range sigma {
		v.keys = append(v.keys, compiledKey{
			key:     k,
			context: CompilePath(in, k.Context),
			target:  CompilePath(in, k.Target),
		})
	}
	return v
}

// SetLimit stops collecting after n violations (0 = no limit). Once the
// cap is hit the validator also stops matching work — subsequent elements
// are tracked for stack balance only, no NFA stepping or frame work —
// and Run merely drains the rest of the stream for well-formedness.
func (v *Validator) SetLimit(n int) { v.limit = n }

// SetMaxDepth caps element nesting: Run fails with a *budget.Error
// (resource "stream depth") on the first element opening deeper than n
// (0 = no cap). A cap turns adversarially deep documents from a stack of
// per-element NFA frames into an early, typed refusal.
func (v *Validator) SetMaxDepth(n int) { v.maxDepth = n }

// saturated reports whether the violation limit has been reached.
func (v *Validator) saturated() bool {
	return v.limit > 0 && len(v.violations) >= v.limit
}

// Violations returns the violations collected so far.
func (v *Validator) Violations() []Violation { return v.violations }

// OK reports whether no violations have been found.
func (v *Validator) OK() bool { return len(v.violations) == 0 }

// Run consumes the whole document from r. It returns a *DecodeError on the
// first XML syntax or reader error and a *budget.Error if a SetMaxDepth
// cap is exceeded; key violations are collected, not returned as errors.
func (v *Validator) Run(r io.Reader) error {
	return v.RunCtx(nil, r)
}

// RunCtx is Run under a context: cancellation is checked once per token,
// and a budget attached via budget.With adds to the validator's own
// configuration — MaxStreamDepth tightens SetMaxDepth, and MaxViolations
// aborts the run with a *budget.Error once that many violations have been
// collected (unlike SetLimit, which saturates quietly and keeps draining).
// On any error the violations collected so far remain available from
// Violations(); the error is what marks them as possibly incomplete.
func (v *Validator) RunCtx(ctx context.Context, r io.Reader) error {
	maxViol := 0
	if b := budget.From(ctx); b != nil {
		if b.MaxStreamDepth > 0 && (v.maxDepth == 0 || b.MaxStreamDepth < v.maxDepth) {
			old := v.maxDepth
			v.maxDepth = b.MaxStreamDepth
			defer func() { v.maxDepth = old }()
		}
		maxViol = b.MaxViolations
	}
	src := xmltok.New(r, v.in)
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		tok, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return WrapTokenError(err)
		}
		if err := v.Feed(tok); err != nil {
			return err
		}
		if maxViol > 0 && len(v.violations) >= maxViol {
			return budget.Exceeded("stream validation", budget.Violations, maxViol)
		}
	}
}

// WrapTokenError converts a tokenizer failure into the package's typed
// *DecodeError, preserving the byte offset and the underlying cause.
func WrapTokenError(err error) error {
	var te *xmltok.Error
	if errors.As(err, &te) {
		return &DecodeError{Offset: te.Offset, Err: te.Err}
	}
	return &DecodeError{Err: err}
}

// Feed processes one already-decoded token, for callers that own the
// xmltok.Source loop themselves (the shredding pipeline validates and
// shreds in a single tokenizer pass). The token must come from a Source
// built over this validator's interner, so Token.Code lines up with the
// compiled NFAs. Start elements deeper than the SetMaxDepth cap return a
// *budget.Error; key violations are collected, not returned — poll
// Violations() between tokens. Tokens other than element boundaries are
// ignored. The token is not retained past the call.
func (v *Validator) Feed(tok *xmltok.Token) error {
	switch tok.Kind {
	case xmltok.StartElement:
		if v.maxDepth > 0 && len(v.stack)+v.skipDepth >= v.maxDepth {
			return budget.Exceeded("stream validation", budget.StreamDepth, v.maxDepth)
		}
		v.startElement(tok)
	case xmltok.EndElement:
		v.endElement()
	}
	return nil
}

// pathAt renders stack labels [1, depth) as a label path below the root.
func (v *Validator) pathAt(depth int) string {
	if depth <= 1 {
		return ""
	}
	n := depth - 2
	for i := 1; i < depth; i++ {
		n += len(v.stack[i].label)
	}
	var b strings.Builder
	b.Grow(n)
	for i := 1; i < depth; i++ {
		if i > 1 {
			b.WriteByte('/')
		}
		b.WriteString(v.stack[i].label)
	}
	return b.String()
}

// contextPath renders a context instance's label path for a violation.
// A context whose own element is the offender (depth equals the current
// stack) reports an empty path, matching the historical behavior of
// recording context paths only after the element's checks ran.
func (v *Validator) contextPath(ci *contextInstance) string {
	if ci.depth == len(v.stack) {
		return ""
	}
	return v.pathAt(ci.depth)
}

// pushFrame grows the stack by one, reusing the slices of a previously
// popped frame when the capacity is there.
func (v *Validator) pushFrame(label string) *frame {
	n := len(v.stack)
	if n < cap(v.stack) {
		v.stack = v.stack[:n+1]
	} else {
		v.stack = append(v.stack, frame{})
	}
	f := &v.stack[n]
	f.label = label
	if cap(f.ctxPos) < len(v.keys) {
		f.ctxPos = make([]PosSet, len(v.keys))
	} else {
		f.ctxPos = f.ctxPos[:len(v.keys)]
	}
	f.contexts = f.contexts[:0]
	f.tgt = f.tgt[:0]
	return f
}

// newContext takes a context instance from the free list or allocates
// one. Recycled instances keep their seen map's buckets (cleared at
// retirement), so contexts opened and closed in a loop stop allocating.
func (v *Validator) newContext(keyIdx int) *contextInstance {
	var ci *contextInstance
	if k := len(v.ciFree); k > 0 {
		ci = v.ciFree[k-1]
		v.ciFree = v.ciFree[:k-1]
	} else {
		ci = &contextInstance{seen: make(map[string]bool)}
	}
	ci.keyIdx = keyIdx
	ci.depth = len(v.stack)
	return ci
}

func (v *Validator) startElement(t *xmltok.Token) {
	// Past the violation limit no element can contribute anything: skip all
	// NFA and bookkeeping work, tracking depth only so endElement stays
	// balanced with the real frames beneath.
	if v.saturated() {
		v.skipDepth++
		return
	}
	isRoot := len(v.stack) == 0
	f := v.pushFrame(t.Label)

	// Advance the context NFAs: the root starts them; children advance
	// their parent's sets by this label's code (resolved by the tokenizer).
	for i := range v.keys {
		if isRoot {
			f.ctxPos[i] = v.keys[i].context.Start()
		} else {
			parent := &v.stack[len(v.stack)-2]
			f.ctxPos[i] = v.keys[i].context.Step(parent.ctxPos[i], t.Code)
		}
	}

	// Advance the target NFAs of every context active at the parent. An
	// empty result set is dead for the whole subtree and is dropped here,
	// so deep non-matching elements carry no per-context state at all.
	if !isRoot {
		parent := &v.stack[len(v.stack)-2]
		for _, te := range parent.tgt {
			next := v.keys[te.keyIdx].target.Step(te.set, t.Code)
			if next.Empty() {
				continue
			}
			f.tgt = append(f.tgt, targetEntry{keyIdx: te.keyIdx, ci: te.ci, set: next})
		}
	}

	// Seed this element's own context instances where the context NFA
	// accepts.
	for i := range v.keys {
		if v.keys[i].context.Accepted(f.ctxPos[i]) {
			ci := v.newContext(i)
			f.contexts = append(f.contexts, ci)
			f.tgt = append(f.tgt, targetEntry{keyIdx: i, ci: ci, set: v.keys[i].target.Start()})
		}
	}

	// Check targets: for each active context whose target NFA accepts
	// here, this element is a target node.
	for k := range f.tgt {
		te := &f.tgt[k]
		if v.keys[te.keyIdx].target.Accepted(te.set) {
			v.checkTarget(&v.keys[te.keyIdx], te.ci, t)
		}
	}
}

// appendTupleField appends one key-attribute value in the validator's
// length-prefixed tuple encoding, "<decimal length>:<bytes>\x00". The
// encoded form is pinned byte-for-byte by TestStreamTupleEncodingUnchanged:
// it must stay equal to the fmt.Fprintf("%d:%s\x00") form it replaced,
// since equal tuples are what defines a duplicate key.
func appendTupleField(dst, val []byte) []byte {
	dst = strconv.AppendInt(dst, int64(len(val)), 10)
	dst = append(dst, ':')
	dst = append(dst, val...)
	return append(dst, 0)
}

func (v *Validator) checkTarget(ck *compiledKey, ci *contextInstance, t *xmltok.Token) {
	if v.limit > 0 && len(v.violations) >= v.limit {
		return
	}
	tuple := v.scratch[:0]
	complete := true
	for _, a := range ck.key.Attrs {
		val, ok := attrValue(t, a)
		if !ok {
			v.violations = append(v.violations, Violation{
				Key: ck.key, Kind: xmlkey.MissingAttribute, Attr: a,
				Offset: t.Offset, ContextPath: v.contextPath(ci), TargetPath: v.pathAt(len(v.stack)),
			})
			complete = false
			continue
		}
		tuple = appendTupleField(tuple, val)
	}
	v.scratch = tuple
	if !complete {
		return
	}
	if ci.seen[string(tuple)] {
		v.violations = append(v.violations, Violation{
			Key: ck.key, Kind: xmlkey.DuplicateKey,
			Offset: t.Offset, ContextPath: v.contextPath(ci), TargetPath: v.pathAt(len(v.stack)),
		})
		return
	}
	ci.seen[string(tuple)] = true
}

func (v *Validator) endElement() {
	if v.skipDepth > 0 {
		v.skipDepth--
		return
	}
	if len(v.stack) == 0 {
		return
	}
	// Closing an element retires the contexts it opened; their tuple
	// memory is released (maps cleared, instances recycled) here, which
	// is what keeps the validator streaming.
	f := &v.stack[len(v.stack)-1]
	for _, ci := range f.contexts {
		clear(ci.seen)
		v.ciFree = append(v.ciFree, ci)
	}
	v.stack = v.stack[:len(v.stack)-1]
}

// attrValue finds an attribute by local name. Like the historical
// xml.StartElement matching, it does not special-case xmlns declarations:
// a key attribute named "xmlns" matches a namespace declaration.
func attrValue(t *xmltok.Token, name string) ([]byte, bool) {
	for i := range t.Attrs {
		if string(t.Attrs[i].Local) == name {
			return t.Attrs[i].Value, true
		}
	}
	return nil, false
}

// Validate is a convenience one-shot: stream the document from r against
// sigma and return the violations (and any XML syntax error).
func Validate(r io.Reader, sigma []xmlkey.Key) ([]Violation, error) {
	v := NewValidator(sigma)
	if err := v.Run(r); err != nil {
		return v.Violations(), err
	}
	return v.Violations(), nil
}

// ValidateString is Validate over a string.
func ValidateString(s string, sigma []xmlkey.Key) ([]Violation, error) {
	return Validate(strings.NewReader(s), sigma)
}
