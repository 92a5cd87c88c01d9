package shred

// The streaming evaluator: bindings of rule variables are discovered by
// stepping each open binding's child-path NFAs along the element stack,
// mirroring xmltree.Eval's node-set semantics without the tree. Text
// content is collected per bound element exactly as xmltree.Parse stores
// it (each character-data token trimmed, concatenated with no separator),
// so streaming and tree evaluation agree byte-for-byte on every value.
//
// The element stack is a reusable value slice: frames, their per-rule
// active-binding lists and the position-set arenas they carve from are
// all reclaimed on push, and an element's path node is built at most once
// and only when a binding actually anchors there — so elements that bind
// nothing cost word-sized NFA steps and no heap. A path is rendered to a
// string only when a lineage ref is.
//
// A closed block of bindings is handed to its rule as is: the evaluator
// only counts its rows and charges the tuple budget, and the rule then
// enumerates the block's Cartesian product in place (product) before the
// next token is read, so no block's rows are ever materialized and a
// row's lineage stays a list of binding pointers until an FD violation
// renders it.

import (
	"bytes"
	"fmt"
	"math"
	"math/bits"
	"strings"

	"xkprop/internal/budget"
	"xkprop/internal/rel"
	"xkprop/internal/stream"
	"xkprop/internal/xmltok"
)

// Ref is one lineage reference: the source node a tuple value (or the
// binding anchoring it) came from, as a byte offset of its start tag plus
// the concrete label path from the document root.
type Ref struct {
	Var    string `json:"var"`
	Offset int64  `json:"offset"`
	Path   string `json:"path"`
}

// bind is one binding of a rule variable to a document node.
type bind struct {
	v   *cvar
	off int64
	// path is the anchor element's label path, shared by every binding
	// anchored there; an attribute binding's Ref appends "/@attr" only
	// when its lineage is rendered.
	path *pathNode
	val  string
	text *strings.Builder
	kids [][]*bind // per child slot, bindings in document order
}

// pathNode is the last label of an element's absolute path, linked to
// its parent element's node. Nodes are immutable, so the bindings
// anchored at an element share one and keep it after the element
// closes; a later element at the same depth gets a new node.
type pathNode struct {
	label  string
	parent *pathNode
}

// String renders the path as "/" followed by the labels joined by "/".
func (n *pathNode) String() string {
	size := 0
	for p := n; p != nil; p = p.parent {
		size += 1 + len(p.label)
	}
	buf := make([]byte, size)
	for p := n; p != nil; p = p.parent {
		size -= len(p.label)
		copy(buf[size:], p.label)
		size--
		buf[size] = '/'
	}
	return string(buf)
}

// block is one closed binding handed from the evaluator to its rule,
// with the number of rows its product holds; a nil binding stands for the
// single all-null row.
type block struct {
	b    *bind
	rows uint64
}

// bindPos tracks one open binding's child-path NFA position sets while
// its anchor element is on the stack. sets is carved from the owning
// frame's arena.
type bindPos struct {
	b    *bind
	sets []stream.PosSet // per child slot
}

// eframe is one open element of the evaluator's stack. Frames are reused
// across pushes: active lists, the position-set arena and the opened list
// only reslice.
type eframe struct {
	label  string
	node   *pathNode   // the element's path node, nil until a binding anchors here
	active [][]bindPos // per rule: open bindings still able to match children
	arena  []stream.PosSet
	opened []*bind // element bindings anchored at this element, doc order
	nText  int     // text collectors pushed at this element
}

// newSets carves a position-set slice for one binding from the frame's
// arena. The arena is a bump allocator: growth may move it, but
// previously carved windows keep aliasing the old backing array, which is
// fine — they are only ever accessed through their own slice headers.
func (f *eframe) newSets(k int) []stream.PosSet {
	n := len(f.arena)
	if n+k <= cap(f.arena) {
		f.arena = f.arena[:n+k]
		s := f.arena[n : n+k : n+k]
		for i := range s {
			s[i] = stream.PosSet{}
		}
		return s
	}
	f.arena = append(f.arena, make([]stream.PosSet, k)...)
	return f.arena[n : n+k : n+k]
}

// evaluator runs one document through the compiled transformation.
type evaluator struct {
	c          *Compiled
	maxTuples  int
	raw        uint64 // raw rows charged against maxTuples, pre-dedup
	emit       func(ri int, blk block) error
	stack      []eframe
	texts      []*bind // bindings currently collecting text, stack order
	closed     []*bind // blocks closing at the current end tag, reused
	roots      []*bind // per rule
	emitted    []int   // per rule: blocks emitted mid-stream
	rootClosed bool
}

func (c *Compiled) newEvaluator(maxTuples int, emit func(ri int, blk block) error) *evaluator {
	return &evaluator{
		c:         c,
		maxTuples: maxTuples,
		emit:      emit,
		roots:     make([]*bind, len(c.rules)),
		emitted:   make([]int, len(c.rules)),
	}
}

// attrOf mirrors xmltree.Parse's attribute handling: xmlns declarations
// are invisible, lookup is by local name. The returned string is a copy —
// the token's views die at the next advance, binding values must not.
func attrOf(t *xmltok.Token, name string) (string, bool) {
	for i := range t.Attrs {
		a := &t.Attrs[i]
		if a.IsNamespaceDecl() {
			continue
		}
		if string(a.Local) == name {
			return string(a.Value), true
		}
	}
	return "", false
}

// path returns the current element's path node.
func (e *evaluator) path() *pathNode { return e.nodeAt(len(e.stack) - 1) }

// nodeAt returns the path node of the open element at depth d, building
// it, and those of its ancestors that have none, on first use.
func (e *evaluator) nodeAt(d int) *pathNode {
	f := &e.stack[d]
	if f.node == nil {
		var parent *pathNode
		if d > 0 {
			parent = e.nodeAt(d - 1)
		}
		f.node = &pathNode{label: f.label, parent: parent}
	}
	return f.node
}

// pushFrame grows the stack by one, reclaiming the slices of a frame
// previously popped at this depth.
func (e *evaluator) pushFrame() *eframe {
	n := len(e.stack)
	if n < cap(e.stack) {
		e.stack = e.stack[:n+1]
	} else {
		e.stack = append(e.stack, eframe{})
	}
	f := &e.stack[n]
	if cap(f.active) < len(e.c.rules) {
		f.active = make([][]bindPos, len(e.c.rules))
	} else {
		f.active = f.active[:len(e.c.rules)]
	}
	for ri := range f.active {
		f.active[ri] = f.active[ri][:0]
	}
	f.node = nil
	f.arena = f.arena[:0]
	f.opened = f.opened[:0]
	f.nText = 0
	return f
}

func (e *evaluator) startElement(t *xmltok.Token) error {
	if e.rootClosed && len(e.stack) == 0 {
		return fmt.Errorf("shred: multiple root elements")
	}
	nf := e.pushFrame()
	nf.label = t.Label
	if len(e.stack) == 1 {
		// The document root anchors every rule's root variable.
		for ri, cr := range e.c.rules {
			rb := newBind(cr.vars[0], t.Offset, e.path())
			e.roots[ri] = rb
			e.openBind(nf, ri, rb, t)
		}
	} else {
		pf := &e.stack[len(e.stack)-2]
		for ri, cr := range e.c.rules {
			for pi := range pf.active[ri] {
				bp := &pf.active[ri][pi]
				nsets := nf.newSets(len(bp.sets))
				alive := false
				for si, ps := range bp.sets {
					cv := cr.vars[bp.b.v.children[si]]
					ns := cv.elem.Step(ps, t.Code)
					nsets[si] = ns
					if !ns.Empty() {
						alive = true
					}
				}
				if alive {
					nf.active[ri] = append(nf.active[ri], bindPos{b: bp.b, sets: nsets})
				}
				for si, ns := range nsets {
					cv := cr.vars[bp.b.v.children[si]]
					if cv.elem.Accepted(ns) {
						e.acceptChild(nf, ri, bp.b, si, cv, t)
					}
				}
			}
		}
	}
	return nil
}

func newBind(cv *cvar, off int64, path *pathNode) *bind {
	b := &bind{v: cv, off: off, path: path}
	if len(cv.children) > 0 {
		b.kids = make([][]*bind, len(cv.children))
	}
	return b
}

// acceptChild records that the current element (or one of its attributes)
// binds variable cv under the parent binding.
func (e *evaluator) acceptChild(nf *eframe, ri int, parent *bind, slot int, cv *cvar, t *xmltok.Token) {
	if cv.attr != "" {
		// Attribute variable: an element matching the path without the
		// attribute contributes no binding, exactly like xmltree.Eval.
		val, ok := attrOf(t, cv.attr)
		if !ok {
			return
		}
		parent.kids[slot] = append(parent.kids[slot], &bind{
			v: cv, off: t.Offset, path: e.path(), val: val,
		})
		return
	}
	nb := newBind(cv, t.Offset, e.path())
	parent.kids[slot] = append(parent.kids[slot], nb)
	e.openBind(nf, ri, nb, t)
}

// openBind registers a fresh element binding on the current frame: a text
// collector if the variable populates a field, and child-path NFAs seeded
// at their start sets. A child path accepted at its own start set (ε after
// the attribute strip, or a //-prefixed root mapping — descendant-or-self
// includes the anchor) binds at this same element, recursively.
func (e *evaluator) openBind(nf *eframe, ri int, b *bind, t *xmltok.Token) {
	if b.v.needsText {
		b.text = &strings.Builder{}
		e.texts = append(e.texts, b)
		nf.nText++
	}
	nf.opened = append(nf.opened, b)
	if len(b.v.children) == 0 {
		return
	}
	sets := nf.newSets(len(b.v.children))
	nf.active[ri] = append(nf.active[ri], bindPos{b: b, sets: sets})
	for si, ci := range b.v.children {
		cv := e.c.rules[ri].vars[ci]
		s := cv.elem.Start()
		sets[si] = s
		if cv.elem.Accepted(s) {
			e.acceptChild(nf, ri, b, si, cv, t)
		}
	}
}

// charData mirrors xmltree.Parse: each token is trimmed of surrounding
// whitespace and, if anything remains, appended to every open collector —
// which is exactly how TextContent concatenates descendant text nodes.
func (e *evaluator) charData(s []byte) error {
	trimmed := bytes.TrimSpace(s)
	if len(trimmed) == 0 {
		return nil
	}
	if len(e.stack) == 0 {
		return fmt.Errorf("shred: character data outside the document root")
	}
	for _, b := range e.texts {
		b.text.Write(trimmed)
	}
	return nil
}

func (e *evaluator) endElement() error {
	nf := &e.stack[len(e.stack)-1]
	if nf.nText > 0 {
		closing := e.texts[len(e.texts)-nf.nText:]
		for _, b := range closing {
			b.val = b.text.String()
			b.text = nil
		}
		e.texts = e.texts[:len(e.texts)-nf.nText]
	}
	// Streaming emission: a closed binding of a streamable rule's sole
	// root child is a complete block — detach it from the root and hand it
	// off. The blocks are collected first: a later entry of opened may
	// belong to a block already handed off.
	e.closed = e.closed[:0]
	for _, b := range nf.opened {
		if e.c.rules[b.v.ri].streamable && b.v.parent == 0 {
			e.closed = append(e.closed, b)
		}
	}
	for _, b := range e.closed {
		ri := b.v.ri
		e.detach(ri, b)
		e.emitted[ri]++
		if err := e.handOff(ri, b); err != nil {
			return err
		}
	}
	e.stack = e.stack[:len(e.stack)-1]
	if len(e.stack) == 0 {
		e.rootClosed = true
		return e.finish()
	}
	return nil
}

// detach releases a closed block from rule ri's root binding.
func (e *evaluator) detach(ri int, b *bind) {
	kids := e.roots[ri].kids[0]
	for i := len(kids) - 1; i >= 0; i-- {
		if kids[i] == b {
			e.roots[ri].kids[0] = append(kids[:i], kids[i+1:]...)
			return
		}
	}
}

// finish runs when the document root closes: streamable rules that never
// matched emit their single all-null tuple (the Cartesian product over an
// empty binding set per Def 2.2), and multi-root-child rules hand off
// their root binding as one block — the one place block memory is
// proportional to the document's matched bindings rather than a single
// block.
func (e *evaluator) finish() error {
	for ri, cr := range e.c.rules {
		rb := e.roots[ri]
		if rb == nil {
			continue
		}
		e.roots[ri] = nil
		if cr.streamable {
			if e.emitted[ri] == 0 {
				if err := e.handOff(ri, nil); err != nil {
					return err
				}
			}
			continue
		}
		if err := e.handOff(ri, rb); err != nil {
			return err
		}
	}
	return nil
}

// handOff charges a closed block's raw row count against the tuple budget
// and hands the block to rule ri; b == nil is the all-null row.
func (e *evaluator) handOff(ri int, b *bind) error {
	rows, raw := uint64(1), uint64(1)
	if b != nil {
		rows, raw = countRows(b)
	}
	e.raw = satAdd(e.raw, raw)
	if e.maxTuples > 0 && e.raw > uint64(e.maxTuples) {
		return budget.Exceeded("shred", budget.Tuples, e.maxTuples)
	}
	return e.emit(ri, block{b: b, rows: rows})
}

// countRows returns the number of rows in b's product and the raw count
// the tuple budget charges for it: the rows a slot-by-slot materializing
// expansion would build, pre-dedup — one base row per binding, then per
// child slot the rows so far once more for an empty slot, or the slot's
// bindings' raw counts plus the rows so far times the slot's factor.
// Both counts saturate at math.MaxUint64, so a product too large to count
// exceeds every budget instead of wrapping.
func countRows(b *bind) (rows, raw uint64) {
	rows, raw = 1, 1
	for si := range b.v.children {
		var kids []*bind
		if b.kids != nil {
			kids = b.kids[si]
		}
		if len(kids) == 0 {
			raw = satAdd(raw, rows)
			continue
		}
		var factor uint64
		for _, kb := range kids {
			kr, kraw := countRows(kb)
			factor = satAdd(factor, kr)
			raw = satAdd(raw, kraw)
		}
		rows = satMul(rows, factor)
		raw = satAdd(raw, rows)
	}
	return rows, raw
}

func satAdd(a, b uint64) uint64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxUint64
}

func satMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return math.MaxUint64
	}
	return lo
}

// release drops a handed-off block's child links once its product has
// been enumerated, so a witness holding some of its bindings pins nothing
// else.
func release(b *bind) {
	if b == nil {
		return
	}
	for _, kids := range b.kids {
		for _, kb := range kids {
			release(kb)
		}
	}
	b.kids = nil
}

func nullTuple(width int) rel.Tuple {
	t := make(rel.Tuple, width)
	for i := range t {
		t[i] = rel.NullValue
	}
	return t
}

// lineage is a row's chosen bindings in depth-first slot order (the
// rule's blockVars order), nil where a variable is unbound: the row's
// provenance, kept as pointers and rendered to Refs only on demand.
type lineage []*bind

// bound counts the bound variables.
func (l lineage) bound() int {
	n := 0
	for _, b := range l {
		if b != nil {
			n++
		}
	}
	return n
}

// refs renders the lineage as an exactly sized Ref slice, nil when no
// variable is bound (the all-null row).
func (l lineage) refs() []Ref {
	n := l.bound()
	if n == 0 {
		return nil
	}
	out := make([]Ref, 0, n)
	for _, b := range l {
		if b == nil {
			continue
		}
		path := b.path.String()
		if b.v.attr != "" {
			path += "/@" + b.v.attr
		}
		out = append(out, Ref{Var: b.v.name, Offset: b.off, Path: path})
	}
	return out
}

// offset is the row's anchoring byte offset: the largest start-tag offset
// among its bindings (the most specific contributing node), 0 for none.
func (l lineage) offset() int64 {
	var max int64
	for _, b := range l {
		if b != nil && b.off > max {
			max = b.off
		}
	}
	return max
}

// clone returns an exactly sized copy of the bound entries, for a row
// that outlives its enumeration step (an FD witness).
func (l lineage) clone() lineage {
	out := make(lineage, 0, l.bound())
	for _, b := range l {
		if b != nil {
			out = append(out, b)
		}
	}
	return out
}

// product enumerates one block's Cartesian product for its rule,
// one row at a time in a reused scratch tuple. The order is the one of a
// slot-by-slot expansion: the binding's own value joined with, per child
// slot, the concatenation of each child binding's product in document
// order — or the null factor when the slot matched nothing (the paper's
// null subtree). That order is a lexicographic odometer over the block's
// variables in depth-first slot order: a variable's digit ranges over its
// parent's chosen binding's kids in its slot, and a variable whose parent
// is unbound or whose slot is empty is unbound and nulls its column. Def
// 2.2 populates each column from exactly one variable, so a digit change
// rewrites only the columns of the digits it resets.
type product struct {
	vars   []*cvar
	parent []int
	row    rel.Tuple // the current row
	lin    lineage   // the current row's binding per variable
	at     []int     // per variable, lin[i]'s index among its slot's kids
}

func newProduct(cr *crule) product {
	return product{
		vars:   cr.blockVars,
		parent: cr.blockParent,
		row:    nullTuple(cr.width),
		lin:    make(lineage, len(cr.blockVars)),
		at:     make([]int, len(cr.blockVars)),
	}
}

// first positions the product at the first row of b's block (b == nil:
// the all-null row).
func (p *product) first(b *bind) {
	p.set(0, b, 0)
	p.reset(1)
}

// next advances to the following row, reporting false past the last.
func (p *product) next() bool {
	for i := len(p.vars) - 1; i > 0; i-- {
		if p.lin[i] == nil {
			continue
		}
		kids := p.lin[p.parent[i]].kids[p.vars[i].slot]
		if n := p.at[i] + 1; n < len(kids) {
			p.set(i, kids[n], n)
			p.reset(i + 1)
			return true
		}
	}
	return false
}

// reset moves every digit from position from on to its first choice
// under the current choices before it.
func (p *product) reset(from int) {
	for i := from; i < len(p.vars); i++ {
		var b *bind
		if pb := p.lin[p.parent[i]]; pb != nil && pb.kids != nil {
			if kids := pb.kids[p.vars[i].slot]; len(kids) > 0 {
				b = kids[0]
			}
		}
		p.set(i, b, 0)
	}
}

func (p *product) set(i int, b *bind, at int) {
	p.lin[i], p.at[i] = b, at
	if col := p.vars[i].fieldCol; col >= 0 {
		if b == nil {
			p.row[col] = rel.NullValue
		} else {
			p.row[col] = rel.V(b.val)
		}
	}
}
