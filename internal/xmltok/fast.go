package xmltok

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// initialBufSize is the starting window size. The window doubles only
// when a single token outgrows it; otherwise it is recycled forever.
const initialBufSize = 32 << 10

// textSpan locates decoded text either in the window (rel offsets from
// tokStart) or, when entity expansion or \r normalization rewrote it, in
// the scratch arena.
type textSpan struct {
	start, end int
	inScratch  bool
}

// attrSpan records one parsed attribute by position; views are
// materialized only once the whole start tag has parsed (window indices
// stay valid across compaction because they are relative to tokStart).
type attrSpan struct {
	nameStart, nameEnd int // rel to tokStart
	colon              int // colon index within name, -1 if unsplit
	val                textSpan
}

// stackEntry is one open element: a span of its raw qualified name in
// the nameBuf arena, which survives window compaction.
type stackEntry struct {
	start, end int
	colon      int
}

// Tokenizer is the fast zero-copy implementation of Source. It scans a
// growable window buffer in place; every Token's byte-slice fields are
// views into that window (or the scratch arena for rewritten text) and
// are valid only until the next call to Next. After a warm-up document,
// Reset lets a steady-state pass allocate nothing per token.
type Tokenizer struct {
	rd       io.Reader
	buf      []byte
	pos      int   // next unconsumed byte
	w        int   // buf[:w] holds read data
	tokStart int   // first byte of the token being parsed
	base     int64 // input offset of buf[0]
	lineBase int   // '\n' count in bytes discarded before buf[0]
	rdErr    error // reader's error, surfaced once buffered bytes drain
	err      error // sticky terminal state (io.EOF or *Error)

	labels   *labelCache
	tok      Token
	attrs    []attrSpan
	outAttrs []Attr
	scratch  []byte

	nameBuf []byte // arena holding open-element names
	stack   []stackEntry

	pendingClose                 bool // self-closing tag: emit EndElement next
	pendingNameStart             int  // rel to tokStart (window untouched between calls)
	pendingNameEnd, pendingColon int
	pendingOffset                int64
}

// New returns a fast tokenizer reading from r, resolving element labels
// against in (nil allowed: every Code is NoCode).
func New(r io.Reader, in LabelInterner) *Tokenizer {
	t := &Tokenizer{labels: newLabelCache(in)}
	t.Reset(r)
	return t
}

// Reset rewinds the tokenizer onto a new input, keeping every internal
// buffer and the label cache, so reuse across documents is allocation
// free in the steady state.
func (t *Tokenizer) Reset(r io.Reader) {
	t.rd = r
	if t.buf == nil {
		t.buf = make([]byte, initialBufSize)
	}
	t.pos, t.w, t.tokStart = 0, 0, 0
	t.base, t.lineBase = 0, 0
	t.rdErr, t.err = nil, nil
	t.attrs = t.attrs[:0]
	t.scratch = t.scratch[:0]
	t.nameBuf = t.nameBuf[:0]
	t.stack = t.stack[:0]
	t.pendingClose = false
}

// InputOffset returns the byte offset of the tokenizer's current input
// position, like encoding/xml's Decoder.InputOffset.
func (t *Tokenizer) InputOffset() int64 { return t.base + int64(t.pos) }

// fill reads more input, compacting the consumed prefix or doubling the
// window first when it is full. A reader error is recorded for ensure to
// surface only after the buffered bytes are consumed, and (n>0, err)
// reads are honored.
func (t *Tokenizer) fill() {
	if t.w == len(t.buf) {
		if t.tokStart > 0 {
			shift := t.tokStart
			t.lineBase += bytes.Count(t.buf[:shift], nlByte)
			copy(t.buf, t.buf[shift:t.w])
			t.pos -= shift
			t.w -= shift
			t.base += int64(shift)
			t.tokStart = 0
		} else {
			nb := make([]byte, 2*len(t.buf))
			copy(nb, t.buf[:t.w])
			t.buf = nb
		}
	}
	n, err := t.rd.Read(t.buf[t.w:])
	t.w += n
	if err != nil {
		t.rdErr = err
	}
}

var nlByte = []byte{'\n'}

// ensure makes at least one unconsumed byte available, reporting false
// when input is exhausted (t.rdErr holds io.EOF or the reader's error).
func (t *Tokenizer) ensure() bool {
	for t.pos == t.w {
		if t.rdErr != nil {
			return false
		}
		t.fill()
	}
	return true
}

func (t *Tokenizer) getc() (byte, bool) {
	if !t.ensure() {
		return 0, false
	}
	b := t.buf[t.pos]
	t.pos++
	return b, true
}

// peek returns the byte k positions ahead without consuming it.
func (t *Tokenizer) peek(k int) (byte, bool) {
	for t.w-t.pos <= k {
		if t.rdErr != nil {
			return 0, false
		}
		t.fill()
	}
	return t.buf[t.pos+k], true
}

// line is the 1-based line of the current position, computed only when
// building an error: discarded-prefix newlines are accumulated at
// compaction, the rest counted here.
func (t *Tokenizer) line() int {
	return 1 + t.lineBase + bytes.Count(t.buf[:t.pos], nlByte)
}

// syntaxErr builds the same *xml.SyntaxError concrete type the std
// decoder produces, so errors.As behaves identically on either path.
func (t *Tokenizer) syntaxErr(msg string) error {
	e := &Error{Offset: t.base + int64(t.pos), Err: &xml.SyntaxError{Msg: msg, Line: t.line()}}
	t.err = e
	return e
}

func (t *Tokenizer) failErr(err error) error {
	e := &Error{Offset: t.base + int64(t.pos), Err: err}
	t.err = e
	return e
}

// eofErr surfaces end-of-input inside a construct: io.EOF becomes the
// stdlib's "unexpected EOF" syntax error, a real reader error passes
// through untouched.
func (t *Tokenizer) eofErr() error {
	if t.rdErr == io.EOF {
		return t.syntaxErr("unexpected EOF")
	}
	return t.failErr(t.rdErr)
}

func (t *Tokenizer) resetTok() {
	t.tok = Token{}
}

// setNameRel installs Name/Space/Local views for a name at the given
// rel span, splitting at a pre-validated colon index.
func (t *Tokenizer) setNameRel(relStart, relEnd, colon int) {
	name := t.buf[t.tokStart+relStart : t.tokStart+relEnd]
	t.tok.Name = name
	if colon >= 0 {
		t.tok.Space = name[:colon]
		t.tok.Local = name[colon+1:]
	} else {
		t.tok.Space = nil
		t.tok.Local = name
	}
}

func (t *Tokenizer) spanBytes(sp textSpan) []byte {
	if sp.inScratch {
		return t.scratch[sp.start:sp.end]
	}
	return t.buf[t.tokStart+sp.start : t.tokStart+sp.end]
}

// Next returns the next token or io.EOF at a clean end of input. Any
// other error is a *Error; errors are sticky.
func (t *Tokenizer) Next() (*Token, error) {
	if t.err != nil {
		return nil, t.err
	}
	if t.pendingClose {
		t.pendingClose = false
		t.resetTok()
		t.tok.Kind = EndElement
		t.tok.Offset = t.pendingOffset
		t.setNameRel(t.pendingNameStart, t.pendingNameEnd, t.pendingColon)
		return &t.tok, nil
	}
	t.tokStart = t.pos
	if !t.ensure() {
		if t.rdErr == io.EOF {
			if len(t.stack) > 0 {
				// Matches Token()'s end-of-input open-element check.
				return nil, t.syntaxErr("unexpected EOF")
			}
			t.err = io.EOF
			return nil, io.EOF
		}
		return nil, t.failErr(t.rdErr)
	}
	if t.buf[t.pos] != '<' {
		return t.scanCharData(false)
	}
	t.pos++
	b, ok := t.getc()
	if !ok {
		return nil, t.eofErr()
	}
	switch b {
	case '/':
		return t.scanEndElement()
	case '?':
		return t.scanProcInst()
	case '!':
		return t.scanBang()
	default:
		t.pos--
		return t.scanStartElement()
	}
}

// scanName consumes a name with stdlib name() semantics. On failure ok
// is false and either t.err is set (EOF, reader error, invalid-name
// rune) or nothing was consumed and the caller supplies its own error.
func (t *Tokenizer) scanName() (relStart, relEnd int, ok bool) {
	if !t.ensure() {
		t.eofErr()
		return 0, 0, false
	}
	b := t.buf[t.pos]
	if b < utf8.RuneSelf && !isNameByte(b) {
		return 0, 0, false
	}
	relStart = t.pos - t.tokStart
	t.pos++
	for {
		if !t.ensure() {
			t.eofErr()
			return 0, 0, false
		}
		b = t.buf[t.pos]
		if b >= utf8.RuneSelf || isNameByte(b) {
			t.pos++
			continue
		}
		break
	}
	relEnd = t.pos - t.tokStart
	name := t.buf[t.tokStart+relStart : t.tokStart+relEnd]
	if !isName(name) {
		t.syntaxErr("invalid XML name: " + string(name))
		return 0, 0, false
	}
	return relStart, relEnd, true
}

// nsName wraps scanName with nsname() splitting: more than one colon
// fails without an error (caller's message); a lone "a:b" shape with
// both halves non-empty splits at colon, anything else stays unsplit.
func (t *Tokenizer) nsName() (relStart, relEnd, colon int, ok bool) {
	relStart, relEnd, ok = t.scanName()
	if !ok {
		return 0, 0, 0, false
	}
	name := t.buf[t.tokStart+relStart : t.tokStart+relEnd]
	i := bytes.IndexByte(name, ':')
	if i >= 0 {
		if bytes.IndexByte(name[i+1:], ':') >= 0 {
			return 0, 0, 0, false
		}
		if i == 0 || i == len(name)-1 {
			i = -1
		}
	}
	return relStart, relEnd, i, true
}

// space skips whitespace exactly as stdlib space() does.
func (t *Tokenizer) space() {
	for {
		if !t.ensure() {
			return
		}
		switch t.buf[t.pos] {
		case ' ', '\r', '\n', '\t':
			t.pos++
		default:
			return
		}
	}
}

func localOf(name []byte, colon int) string {
	if colon >= 0 {
		return string(name[colon+1:])
	}
	return string(name)
}

func (t *Tokenizer) scanStartElement() (*Token, error) {
	ns, ne, colon, ok := t.nsName()
	if !ok {
		if t.err == nil {
			t.syntaxErr("expected element name after <")
		}
		return nil, t.err
	}
	t.attrs = t.attrs[:0]
	t.scratch = t.scratch[:0]
	empty := false
	for {
		t.space()
		b, ok := t.getc()
		if !ok {
			return nil, t.eofErr()
		}
		if b == '/' {
			b, ok = t.getc()
			if !ok {
				return nil, t.eofErr()
			}
			if b != '>' {
				return nil, t.syntaxErr("expected /> in element")
			}
			empty = true
			break
		}
		if b == '>' {
			break
		}
		t.pos--
		aStart, aEnd, aColon, ok := t.nsName()
		if !ok {
			if t.err == nil {
				t.syntaxErr("expected attribute name in element")
			}
			return nil, t.err
		}
		t.space()
		b, ok = t.getc()
		if !ok {
			return nil, t.eofErr()
		}
		if b != '=' {
			return nil, t.syntaxErr("attribute name without = in element")
		}
		t.space()
		vs, ok := t.attrVal()
		if !ok {
			return nil, t.err
		}
		t.attrs = append(t.attrs, attrSpan{nameStart: aStart, nameEnd: aEnd, colon: aColon, val: vs})
	}

	rawName := t.buf[t.tokStart+ns : t.tokStart+ne]
	var localBytes []byte
	if colon >= 0 {
		localBytes = rawName[colon+1:]
	} else {
		localBytes = rawName
	}
	label, code := t.labels.resolve(localBytes)

	if empty {
		t.pendingClose = true
		t.pendingNameStart, t.pendingNameEnd, t.pendingColon = ns, ne, colon
		t.pendingOffset = t.base + int64(t.pos)
	} else {
		s := len(t.nameBuf)
		t.nameBuf = append(t.nameBuf, rawName...)
		t.stack = append(t.stack, stackEntry{start: s, end: len(t.nameBuf), colon: colon})
	}

	t.resetTok()
	t.tok.Kind = StartElement
	t.tok.Offset = t.base + int64(t.tokStart)
	t.setNameRel(ns, ne, colon)
	t.tok.Label = label
	t.tok.Code = code
	t.outAttrs = t.outAttrs[:0]
	for i := range t.attrs {
		as := &t.attrs[i]
		name := t.buf[t.tokStart+as.nameStart : t.tokStart+as.nameEnd]
		a := Attr{Name: name, Local: name, Value: t.spanBytes(as.val)}
		if as.colon >= 0 {
			a.Space = name[:as.colon]
			a.Local = name[as.colon+1:]
		}
		t.outAttrs = append(t.outAttrs, a)
	}
	t.tok.Attrs = t.outAttrs
	return &t.tok, nil
}

func (t *Tokenizer) scanEndElement() (*Token, error) {
	ns, ne, colon, ok := t.nsName()
	if !ok {
		if t.err == nil {
			t.syntaxErr("expected element name after </")
		}
		return nil, t.err
	}
	t.space()
	b, ok := t.getc()
	if !ok {
		return nil, t.eofErr()
	}
	name := t.buf[t.tokStart+ns : t.tokStart+ne]
	if b != '>' {
		return nil, t.syntaxErr("invalid characters between </" + localOf(name, colon) + " and >")
	}
	// Raw-name matching is exactly popElement's (Space, Local) pair
	// compare: nsname splitting is a bijection between raw qualified
	// names and pairs, so equal raw bytes <=> equal pairs.
	if len(t.stack) == 0 {
		return nil, t.syntaxErr("unexpected end element </" + localOf(name, colon) + ">")
	}
	top := t.stack[len(t.stack)-1]
	topName := t.nameBuf[top.start:top.end]
	if !bytes.Equal(topName, name) {
		return nil, t.syntaxErr("element <" + localOf(topName, top.colon) + "> closed by </" + localOf(name, colon) + ">")
	}
	t.stack = t.stack[:len(t.stack)-1]
	t.nameBuf = t.nameBuf[:top.start]

	t.resetTok()
	t.tok.Kind = EndElement
	t.tok.Offset = t.base + int64(t.tokStart)
	t.setNameRel(ns, ne, colon)
	return &t.tok, nil
}

func (t *Tokenizer) scanProcInst() (*Token, error) {
	ns, ne, ok := t.scanName()
	if !ok {
		if t.err == nil {
			t.syntaxErr("expected target name after <?")
		}
		return nil, t.err
	}
	t.space()
	contentStart := t.pos - t.tokStart
	var prev byte
	for {
		b, ok := t.getc()
		if !ok {
			return nil, t.eofErr()
		}
		if prev == '?' && b == '>' {
			break
		}
		prev = b
	}
	contentEnd := t.pos - t.tokStart - 2
	target := t.buf[t.tokStart+ns : t.tokStart+ne]
	data := t.buf[t.tokStart+contentStart : t.tokStart+contentEnd]
	if string(target) == "xml" {
		if ver := procInstValue("version=", data); len(ver) > 0 && string(ver) != "1.0" {
			return nil, t.failErr(fmt.Errorf("xml: unsupported version %q; only version 1.0 is supported", ver))
		}
		if enc := procInstValue("encoding=", data); len(enc) > 0 && !bytes.EqualFold(enc, []byte("utf-8")) {
			return nil, t.failErr(fmt.Errorf("xml: encoding %q declared but Decoder.CharsetReader is nil", enc))
		}
	}
	t.resetTok()
	t.tok.Kind = ProcInst
	t.tok.Offset = t.base + int64(t.tokStart)
	t.tok.Name = target
	t.tok.Data = data
	return &t.tok, nil
}

// scanBang dispatches <!-- comments, <![CDATA[ sections and directives.
func (t *Tokenizer) scanBang() (*Token, error) {
	b, ok := t.getc()
	if !ok {
		return nil, t.eofErr()
	}
	switch b {
	case '-':
		b, ok = t.getc()
		if !ok {
			return nil, t.eofErr()
		}
		if b != '-' {
			return nil, t.syntaxErr("invalid sequence <!- not part of <!--")
		}
		return t.scanComment()
	case '[':
		for i := 0; i < 6; i++ {
			b, ok = t.getc()
			if !ok {
				return nil, t.eofErr()
			}
			if b != "CDATA["[i] {
				return nil, t.syntaxErr("invalid <![ sequence")
			}
		}
		return t.scanCharData(true)
	}
	// A directive (<!DOCTYPE, <!ENTITY, ...). Scan it with the stdlib's
	// exact consume rules so truncation errors match the oracle, then
	// reject it as unsupported at the token's '<'.
	if err := t.scanDirectiveBody(); err != nil {
		return nil, err
	}
	e := &Error{Offset: t.base + int64(t.tokStart), Err: &UnsupportedError{Construct: directiveConstruct}}
	t.err = e
	return nil, e
}

// directiveConstruct names the rejected construct identically in both
// decoder paths.
const directiveConstruct = "DTD/directive markup (<!DOCTYPE, <!ENTITY, ...)"

// scanDirectiveBody consumes a <!...> directive with the stdlib's
// nesting rules: quoted angle brackets don't nest, <!-- --> comments are
// skipped whole.
func (t *Tokenizer) scanDirectiveBody() error {
	inquote := byte(0)
	depth := 0
	for {
		b, ok := t.getc()
		if !ok {
			return t.eofErr()
		}
		if inquote == 0 && b == '>' && depth == 0 {
			break
		}
	HandleB:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
			// in quotes, no special action
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			s := "!--"
			for i := 0; i < len(s); i++ {
				b, ok = t.getc()
				if !ok {
					return t.eofErr()
				}
				if b != s[i] {
					depth++
					goto HandleB
				}
			}
			var b0, b1 byte
			for {
				b, ok = t.getc()
				if !ok {
					return t.eofErr()
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
	return nil
}

func (t *Tokenizer) scanComment() (*Token, error) {
	dataStart := t.pos - t.tokStart
	var b0, b1 byte
	for {
		b, ok := t.getc()
		if !ok {
			return nil, t.eofErr()
		}
		if b0 == '-' && b1 == '-' {
			if b != '>' {
				return nil, t.syntaxErr(`invalid sequence "--" not allowed in comments`)
			}
			break
		}
		b0, b1 = b1, b
	}
	dataEnd := t.pos - t.tokStart - 3
	t.resetTok()
	t.tok.Kind = Comment
	t.tok.Offset = t.base + int64(t.tokStart)
	t.tok.Data = t.buf[t.tokStart+dataStart : t.tokStart+dataEnd]
	return &t.tok, nil
}

func (t *Tokenizer) scanCharData(cdata bool) (*Token, error) {
	off := t.base + int64(t.tokStart)
	t.scratch = t.scratch[:0]
	sp, ok := t.scanText(-1, cdata)
	if !ok {
		return nil, t.err
	}
	t.resetTok()
	t.tok.Kind = CharData
	t.tok.Offset = off
	t.tok.Data = t.spanBytes(sp)
	return &t.tok, nil
}

func (t *Tokenizer) attrVal() (textSpan, bool) {
	b, ok := t.getc()
	if !ok {
		t.eofErr()
		return textSpan{}, false
	}
	if b == '"' || b == '\'' {
		return t.scanText(int(b), false)
	}
	t.syntaxErr("unquoted or missing attribute value in element")
	return textSpan{}, false
}

// textStop and textSyntax classify bytes for scanText's run skip.
// textSyntax holds the bytes scanText itself acts on: '<', '&', ']',
// '\r' and both quotes. textStop adds every byte checkChars could
// reject: the ASCII controls other than tab and newline, and all bytes
// of multi-byte runes. Any other byte is skipped, or copied, as part of
// a run, with no branch of its own.
var textStop, textSyntax = func() (stop, syntax [256]bool) {
	for _, c := range []byte("<&]\r'\"") {
		stop[c], syntax[c] = true, true
	}
	for c := 0; c < 256; c++ {
		if c < 0x20 && c != '\t' && c != '\n' || c >= utf8.RuneSelf {
			stop[c] = true
		}
	}
	return stop, syntax
}()

// scanText consumes character data with stdlib text() semantics.
// quote >= 0: inside an attribute value, terminate at the quote byte.
// cdata: inside a CDATA section, terminate at the first raw "]]>".
// Otherwise plain text: terminate before '<' or at end of input.
// The clean path returns a window view; entity expansion or \r
// normalization switches to the scratch arena. The decoded result is
// checked for UTF-8 validity and the XML character range, like stdlib.
//
// Runs of ordinary bytes are skipped within the buffered window: a
// rewritten text copies each run to scratch in one append. checkChars
// runs only when a byte it could reject was seen or the text was
// rewritten (an entity may expand to any rune); after the first such
// byte the scan stops only at textSyntax bytes. The check still runs at
// the end of the text, so its errors keep their message and offset.
func (t *Tokenizer) scanText(quote int, cdata bool) (textSpan, bool) {
	relStart := t.pos - t.tokStart
	relEnd := -1
	dirty := false
	stop := &textStop // &textSyntax once checkChars must run
	scratchStart := len(t.scratch)
loop:
	for {
		run := t.buf[t.pos:t.w]
		n := 0
		for n < len(run) && !stop[run[n]] {
			n++
		}
		if dirty {
			t.scratch = append(t.scratch, run[:n]...)
		}
		t.pos += n
		if !t.ensure() {
			if cdata {
				if t.rdErr == io.EOF {
					t.syntaxErr("unexpected EOF in CDATA section")
				} else {
					t.failErr(t.rdErr)
				}
				return textSpan{}, false
			}
			if quote >= 0 {
				t.eofErr()
				return textSpan{}, false
			}
			relEnd = t.pos - t.tokStart
			break loop
		}
		b := t.buf[t.pos]
		switch {
		case b == ']' && quote < 0:
			// Raw "]]>" terminates CDATA and is an error in plain text.
			// Scanning raw consecutive bytes is equivalent to stdlib's
			// b0/b1 tracking: entity expansions reset its state and CR
			// rewriting tracks the raw bytes, so only three adjacent
			// source bytes can ever trigger it.
			if c1, ok := t.peek(1); ok && c1 == ']' {
				if c2, ok := t.peek(2); ok && c2 == '>' {
					if cdata {
						relEnd = t.pos - t.tokStart
						t.pos += 3
						break loop
					}
					t.pos += 3
					t.syntaxErr("unescaped ]]> not in CDATA section")
					return textSpan{}, false
				}
			}
			t.pos++
			if dirty {
				t.scratch = append(t.scratch, ']')
			}
		case b == '<' && !cdata:
			if quote >= 0 {
				t.pos++
				t.syntaxErr("unescaped < inside quoted string")
				return textSpan{}, false
			}
			relEnd = t.pos - t.tokStart
			break loop
		case quote >= 0 && b == byte(quote):
			relEnd = t.pos - t.tokStart
			t.pos++
			break loop
		case b == '&' && !cdata:
			if !dirty {
				t.scratch = append(t.scratch[:scratchStart], t.buf[t.tokStart+relStart:t.pos]...)
				dirty = true
				stop = &textSyntax
			}
			t.pos++
			if !t.scanEntity() {
				return textSpan{}, false
			}
		case b == '\r':
			if !dirty {
				t.scratch = append(t.scratch[:scratchStart], t.buf[t.tokStart+relStart:t.pos]...)
				dirty = true
				stop = &textSyntax
			}
			t.pos++
			t.scratch = append(t.scratch, '\n')
			if c, ok := t.peek(0); ok && c == '\n' {
				t.pos++
			}
		default:
			// A quote, '<', '&' or ']' that means nothing here, or a
			// byte checkChars must look at.
			if !textSyntax[b] {
				stop = &textSyntax
			}
			t.pos++
			if dirty {
				t.scratch = append(t.scratch, b)
			}
		}
	}
	var sp textSpan
	var data []byte
	if dirty {
		sp = textSpan{start: scratchStart, end: len(t.scratch), inScratch: true}
		data = t.scratch[scratchStart:]
	} else {
		sp = textSpan{start: relStart, end: relEnd}
		data = t.buf[t.tokStart+relStart : t.tokStart+relEnd]
	}
	if stop == &textSyntax && !t.checkChars(data) {
		return textSpan{}, false
	}
	return sp, true
}

// scanEntity decodes one &...; reference (the '&' is already consumed)
// and appends the expansion to scratch. Exactly the five predefined
// entities and numeric character references are supported, with the
// stdlib's precise accept/reject behavior.
func (t *Tokenizer) scanEntity() bool {
	entStart := t.pos - 1 - t.tokStart
	b, ok := t.getc()
	if !ok {
		t.eofErr()
		return false
	}
	if b == '#' {
		base := 10
		b, ok = t.getc()
		if !ok {
			t.eofErr()
			return false
		}
		if b == 'x' {
			base = 16
			b, ok = t.getc()
			if !ok {
				t.eofErr()
				return false
			}
		}
		digStart := t.pos - 1 - t.tokStart
		for isCharRefDigit(base, b) {
			b, ok = t.getc()
			if !ok {
				t.eofErr()
				return false
			}
		}
		digEnd := t.pos - 1 - t.tokStart
		if b != ';' {
			t.pos-- // ungetc: the non-digit byte is not part of the entity
			return t.entityError(entStart)
		}
		s := string(t.buf[t.tokStart+digStart : t.tokStart+digEnd])
		n, err := strconv.ParseUint(s, base, 64)
		if err != nil || n > unicode.MaxRune {
			return t.entityError(entStart)
		}
		// string(rune(n)) semantics: surrogates encode as U+FFFD, which
		// utf8.AppendRune reproduces.
		t.scratch = utf8.AppendRune(t.scratch, rune(n))
		return true
	}
	// Named entity: readName semantics (a non-name first byte consumes
	// nothing and falls through to the ';' check).
	t.pos--
	nameStart := t.pos - t.tokStart
	if !t.ensure() {
		t.eofErr()
		return false
	}
	if c := t.buf[t.pos]; c >= utf8.RuneSelf || isNameByte(c) {
		t.pos++
		for {
			if !t.ensure() {
				t.eofErr()
				return false
			}
			c = t.buf[t.pos]
			if c >= utf8.RuneSelf || isNameByte(c) {
				t.pos++
				continue
			}
			break
		}
	}
	nameEnd := t.pos - t.tokStart
	b, ok = t.getc()
	if !ok {
		t.eofErr()
		return false
	}
	if b != ';' {
		t.pos--
		return t.entityError(entStart)
	}
	name := t.buf[t.tokStart+nameStart : t.tokStart+nameEnd]
	if isName(name) {
		if r, ok := predefEntity(name); ok {
			t.scratch = append(t.scratch, r)
			return true
		}
	}
	return t.entityError(entStart)
}

// entityError mirrors stdlib's "invalid character entity" message: the
// raw entity text, with "(no semicolon)" appended when unterminated.
func (t *Tokenizer) entityError(entStart int) bool {
	ent := string(t.buf[t.tokStart+entStart : t.pos])
	if len(ent) == 0 || ent[len(ent)-1] != ';' {
		ent += " (no semicolon)"
	}
	t.syntaxErr("invalid character entity " + ent)
	return false
}

func isCharRefDigit(base int, b byte) bool {
	return '0' <= b && b <= '9' ||
		base == 16 && 'a' <= b && b <= 'f' ||
		base == 16 && 'A' <= b && b <= 'F'
}

// predefEntity resolves the five XML predefined entities.
func predefEntity(name []byte) (byte, bool) {
	switch string(name) {
	case "lt":
		return '<', true
	case "gt":
		return '>', true
	case "amp":
		return '&', true
	case "apos":
		return '\'', true
	case "quot":
		return '"', true
	}
	return 0, false
}

// checkChars applies stdlib text()'s post-decode scan: reject invalid
// UTF-8 and runes outside the XML character range.
func (t *Tokenizer) checkChars(data []byte) bool {
	for i := 0; i < len(data); {
		b := data[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 || b == 0x09 || b == 0x0A || b == 0x0D {
				i++
				continue
			}
			t.syntaxErr(fmt.Sprintf("illegal character code %U", rune(b)))
			return false
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			t.syntaxErr("invalid UTF-8")
			return false
		}
		if !isInCharacterRange(r) {
			t.syntaxErr(fmt.Sprintf("illegal character code %U", r))
			return false
		}
		i += size
	}
	return true
}

// procInstValue extracts a pseudo-attribute from an <?xml ...?> body,
// reproducing stdlib procInst's quirky scan so both decoders accept and
// reject the same declarations. param is the name with its '='. The
// value is a view into s, so a declaration costs no allocation.
func procInstValue(param string, s []byte) []byte {
	lenp := len(param)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := bytes.Index(sub, []byte(param))
		if k < 0 || lenp+k >= len(sub) {
			return nil
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return nil
	}
	j := bytes.IndexByte(s[i:], sep)
	if j < 0 {
		return nil
	}
	return s[i : i+j]
}
