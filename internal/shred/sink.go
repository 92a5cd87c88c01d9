package shred

// Pluggable sinks. A run opens one TableWriter per rule, in rule order,
// and writes to them all from the goroutine that calls Run, so writers
// need no internal locking.

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"encoding/json"

	"xkprop/internal/rel"
	"xkprop/internal/sqlgen"
)

// Sink opens one TableWriter per table rule.
type Sink interface {
	Open(s *rel.Schema) (TableWriter, error)
}

// TableWriter receives one rule's deduplicated tuples in deterministic
// document order, batch by batch. Close flushes.
type TableWriter interface {
	WriteBatch(rows []rel.Tuple) error
	Close() error
}

// Discard drops every tuple; the pipeline's Result still carries counts
// and violations. This is the sink behind the HTTP endpoint.
type Discard struct{}

type discardWriter struct{}

func (Discard) Open(*rel.Schema) (TableWriter, error) { return discardWriter{}, nil }
func (discardWriter) WriteBatch([]rel.Tuple) error    { return nil }
func (discardWriter) Close() error                    { return nil }

// MemorySink materializes each table as a rel.Relation — the oracle side
// of the differential tests and the backing of EvalStreaming.
type MemorySink struct {
	rels map[string]*rel.Relation
}

func NewMemorySink() *MemorySink {
	return &MemorySink{rels: map[string]*rel.Relation{}}
}

// Relations returns the materialized instance per table name.
func (m *MemorySink) Relations() map[string]*rel.Relation { return m.rels }

type memoryWriter struct{ r *rel.Relation }

func (m *MemorySink) Open(s *rel.Schema) (TableWriter, error) {
	r := rel.NewRelation(s)
	m.rels[s.Name] = r
	return &memoryWriter{r: r}, nil
}

func (w *memoryWriter) WriteBatch(rows []rel.Tuple) error {
	for _, t := range rows {
		if err := w.r.Insert(t); err != nil {
			return err
		}
	}
	return nil
}

func (w *memoryWriter) Close() error { return nil }

// fileWriter is the shared buffered-file machinery of the directory sinks.
type fileWriter struct {
	f  *os.File
	bw *bufio.Writer
}

func newFileWriter(path string) (*fileWriter, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &fileWriter{f: f, bw: bufio.NewWriter(f)}, nil
}

func (w *fileWriter) Close() error {
	if err := w.bw.Flush(); err != nil {
		w.f.Close()
		return err
	}
	return w.f.Close()
}

// CSVSink writes <dir>/<table>.csv with a header row, fields escaped per
// RFC 4180 by the same rel.CSVEscape the in-memory renderer uses, and
// NULL as the empty field.
type CSVSink struct{ Dir string }

func NewCSVSink(dir string) *CSVSink { return &CSVSink{Dir: dir} }

type csvWriter struct {
	*fileWriter
}

func (s *CSVSink) Open(sc *rel.Schema) (TableWriter, error) {
	fw, err := newFileWriter(filepath.Join(s.Dir, sc.Name+".csv"))
	if err != nil {
		return nil, err
	}
	for i, a := range sc.Attrs {
		if i > 0 {
			fw.bw.WriteByte(',')
		}
		fw.bw.WriteString(rel.CSVEscape(a))
	}
	fw.bw.WriteByte('\n')
	return &csvWriter{fileWriter: fw}, nil
}

func (w *csvWriter) WriteBatch(rows []rel.Tuple) error {
	for _, t := range rows {
		for i, v := range t {
			if i > 0 {
				w.bw.WriteByte(',')
			}
			if !v.Null {
				w.bw.WriteString(rel.CSVEscape(v.S))
			}
		}
		if err := w.bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return nil
}

// NDJSONSink writes <dir>/<table>.ndjson, one JSON object per tuple with
// the schema's attribute order preserved and NULL as JSON null.
type NDJSONSink struct{ Dir string }

func NewNDJSONSink(dir string) *NDJSONSink { return &NDJSONSink{Dir: dir} }

type ndjsonWriter struct {
	*fileWriter
	attrs []json.RawMessage // pre-marshaled attribute names
}

func (s *NDJSONSink) Open(sc *rel.Schema) (TableWriter, error) {
	fw, err := newFileWriter(filepath.Join(s.Dir, sc.Name+".ndjson"))
	if err != nil {
		return nil, err
	}
	w := &ndjsonWriter{fileWriter: fw}
	for _, a := range sc.Attrs {
		key, err := json.Marshal(a)
		if err != nil {
			return nil, err
		}
		w.attrs = append(w.attrs, key)
	}
	return w, nil
}

func (w *ndjsonWriter) WriteBatch(rows []rel.Tuple) error {
	var b bytes.Buffer
	for _, t := range rows {
		b.Reset()
		b.WriteByte('{')
		for i, v := range t {
			if i > 0 {
				b.WriteByte(',')
			}
			b.Write(w.attrs[i])
			b.WriteByte(':')
			if v.Null {
				b.WriteString("null")
			} else {
				val, err := json.Marshal(v.S)
				if err != nil {
					return err
				}
				b.Write(val)
			}
		}
		b.WriteString("}\n")
		if _, err := w.bw.Write(b.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// SQLSink writes <dir>/<table>.sql: the table's CREATE TABLE (sqlgen's
// DDL for the configured dialect, no primary key — the shredded instance
// carries nulls) followed by one multi-row INSERT per batch with the same
// identifier quoting.
type SQLSink struct {
	Dir  string
	Opts sqlgen.Options
}

func NewSQLSink(dir string, opts sqlgen.Options) *SQLSink {
	return &SQLSink{Dir: dir, Opts: opts}
}

type sqlWriter struct {
	*fileWriter
	table sqlgen.Table
	opts  sqlgen.Options
}

func (s *SQLSink) Open(sc *rel.Schema) (TableWriter, error) {
	fw, err := newFileWriter(filepath.Join(s.Dir, sc.Name+".sql"))
	if err != nil {
		return nil, err
	}
	table := sqlgen.FromSchema(sc, rel.AttrSet{}, s.Opts)
	if _, err := fw.bw.WriteString(sqlgen.DDL([]sqlgen.Table{table}, s.Opts)); err != nil {
		fw.f.Close()
		return nil, err
	}
	return &sqlWriter{fileWriter: fw, table: table, opts: s.Opts}, nil
}

func (w *sqlWriter) WriteBatch(rows []rel.Tuple) error {
	stmt, err := sqlgen.Insert(w.table, rows, w.opts)
	if err != nil {
		return err
	}
	_, err = w.bw.WriteString(stmt)
	return err
}

// SinkFor builds the named directory sink: "csv", "ndjson" or "sql".
func SinkFor(format, dir string, opts sqlgen.Options) (Sink, error) {
	switch format {
	case "", "csv":
		return NewCSVSink(dir), nil
	case "ndjson":
		return NewNDJSONSink(dir), nil
	case "sql":
		return NewSQLSink(dir, opts), nil
	}
	return nil, fmt.Errorf("shred: unknown sink format %q (want %v)", format, SinkFormats())
}

// SinkFormats lists the directory sink formats, sorted.
func SinkFormats() []string {
	out := []string{"csv", "ndjson", "sql"}
	sort.Strings(out)
	return out
}
