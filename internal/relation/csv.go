package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"
)

// MaxSupportedRows is the hard ceiling on relation cardinality: row
// indices are int32 throughout the partition layer (CSR rows/offsets
// arrays), so a relation past 2³¹−1 rows cannot be represented. The CSV
// readers enforce the ceiling at ingest — even under zero-value Limits —
// so oversized input is a typed *ErrInputTooLarge instead of a panic deep
// inside partition construction.
const MaxSupportedRows = 1<<31 - 1

// Limits bounds CSV ingestion. The zero value is unlimited up to the
// representation ceiling: MaxSupportedRows always applies, because rows
// beyond it are unrepresentable, not merely unwelcome. Limits exist
// because discovery inputs arrive from the outside world (CLI files,
// served request bodies) and an oversized relation must fail crisply with
// *ErrInputTooLarge before it turns into an unbounded allocation inside
// an exponential search.
type Limits struct {
	// MaxBytes bounds the raw CSV bytes consumed from the source (0 =
	// unlimited).
	MaxBytes int64
	// MaxRows bounds the data rows decoded, excluding the header (0 =
	// unlimited up to MaxSupportedRows; values above the ceiling are
	// clamped to it).
	MaxRows int
	// MaxFieldBytes bounds the length of any single field, header
	// included (0 = unlimited).
	MaxFieldBytes int
}

// Unlimited reports whether the limits impose no bound at all (beyond
// the always-on MaxSupportedRows representation ceiling).
func (l Limits) Unlimited() bool {
	return l.MaxBytes == 0 && l.MaxRows == 0 && l.MaxFieldBytes == 0
}

// effectiveMaxRows resolves the row bound the readers enforce: the
// configured MaxRows when set, clamped by the MaxSupportedRows ceiling
// that always applies.
func (l Limits) effectiveMaxRows() int {
	if l.MaxRows > 0 && l.MaxRows < MaxSupportedRows {
		return l.MaxRows
	}
	return MaxSupportedRows
}

// ErrInputTooLarge is returned by the limited CSV readers when an input
// exceeds a Limits bound. It is a typed error so callers (the deptool
// CLI, the server's request decoder) can distinguish "input too big" from
// "input malformed" and answer with the right exit code or HTTP status.
type ErrInputTooLarge struct {
	// What names the exceeded bound: "bytes", "rows" or "field bytes".
	What string
	// Limit is the configured bound; Got is the observed value that
	// exceeded it (for the byte bound, Got is Limit+1: reading stops at
	// the first excess byte).
	Limit, Got int64
}

func (e *ErrInputTooLarge) Error() string {
	return fmt.Sprintf("relation: input too large: %d %s exceeds limit %d", e.Got, e.What, e.Limit)
}

// limitedReader wraps src to fail with *ErrInputTooLarge once more than
// max bytes have been consumed (io.LimitedReader's silent EOF would
// instead truncate the relation mid-record).
type limitedReader struct {
	src io.Reader
	max int64
	n   int64
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if l.n > l.max {
		return 0, &ErrInputTooLarge{What: "bytes", Limit: l.max, Got: l.n}
	}
	// Read at most one probe byte past the limit: an input of exactly
	// max bytes must still reach its EOF, while the first excess byte
	// trips the bound.
	if rem := l.max - l.n + 1; int64(len(p)) > rem {
		p = p[:rem]
	}
	n, err := l.src.Read(p)
	l.n += int64(n)
	if l.n > l.max {
		return n, &ErrInputTooLarge{What: "bytes", Limit: l.max, Got: l.n}
	}
	return n, err
}

// ReadCSV decodes a relation from CSV. The first record is the header. Kinds
// gives the type per column; if nil, every column is read as a string.
func ReadCSV(name string, src io.Reader, kinds []Kind) (*Relation, error) {
	return ReadCSVLimits(name, src, kinds, Limits{})
}

// ReadCSVLimits is ReadCSV under ingestion Limits: exceeding any bound
// stops the read with a wrapped *ErrInputTooLarge instead of allocating
// without bound.
func ReadCSVLimits(name string, src io.Reader, kinds []Kind, lim Limits) (*Relation, error) {
	if lim.MaxBytes > 0 {
		src = &limitedReader{src: src, max: lim.MaxBytes}
	}
	return readCSV(name, src, kinds, false, lim)
}

// readCSV is the one record loop behind both readers. Each record is
// checked in order — the byte and row bounds, field bytes, width, then
// (for given kinds) each field's parse — so the error reported is the
// one on the earliest failing line. Cells are buffered per column in
// chunks (see colBuf) and every column is allocated once, at its final
// length, after the last record. With infer set, kinds must be nil and
// each column's kind is decided from its buffered fields (inferColumn);
// otherwise nil kinds read every column as a string.
func readCSV(name string, src io.Reader, kinds []Kind, infer bool, lim Limits) (*Relation, error) {
	cr := csv.NewReader(src)
	cr.FieldsPerRecord = -1
	// Only the record slice is reused: each Read returns new field
	// strings, so buffering them is safe.
	cr.ReuseRecord = true
	rec, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read CSV header: %w", err)
	}
	if err := checkFields(rec, lim); err != nil {
		return nil, err
	}
	header := append([]string(nil), rec...)
	if kinds == nil {
		kinds = make([]Kind, len(header))
	}
	if len(kinds) != len(header) {
		return nil, fmt.Errorf("relation: %d kinds for %d header columns", len(kinds), len(header))
	}
	attrs := make([]Attribute, len(header))
	seen := make(map[string]bool, len(header))
	for i, h := range header {
		h = foldCR(h)
		header[i] = h
		if seen[h] {
			// NewSchema treats duplicate names as a programming error and
			// panics; for data read from the outside world it is an input
			// error instead.
			return nil, fmt.Errorf("relation: duplicate CSV header column %q", h)
		}
		seen[h] = true
		attrs[i] = Attribute{Name: h, Kind: kinds[i]}
	}
	// Inferred columns buffer raw fields, typed ones parsed values.
	var fields []colBuf[string]
	var vals []colBuf[Value]
	if infer {
		fields = make([]colBuf[string], len(header))
	} else {
		vals = make([]colBuf[Value], len(header))
	}
	maxRows := lim.effectiveMaxRows()
	rows := 0
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			var tooLarge *ErrInputTooLarge
			if errors.As(err, &tooLarge) {
				return nil, fmt.Errorf("relation: read CSV line %d: %w", line, tooLarge)
			}
			return nil, fmt.Errorf("relation: read CSV line %d: %w", line, err)
		}
		if line-1 > maxRows {
			return nil, fmt.Errorf("relation: read CSV: %w",
				&ErrInputTooLarge{What: "rows", Limit: int64(maxRows), Got: int64(line - 1)})
		}
		if err := checkFields(rec, lim); err != nil {
			return nil, err
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("relation: CSV line %d has %d fields, want %d", line, len(rec), len(header))
		}
		for c, field := range rec {
			field = foldCR(field)
			if infer {
				fields[c].push(field)
				continue
			}
			v, err := Parse(field, kinds[c])
			if err != nil {
				return nil, fmt.Errorf("relation: CSV line %d column %s: %w", line, header[c], err)
			}
			vals[c].push(v)
		}
		rows++
	}
	cols := make([][]Value, len(header))
	for c := range cols {
		if infer {
			cols[c], attrs[c].Kind = inferColumn(&fields[c])
			fields[c] = colBuf[string]{} // release the raw fields early
		} else {
			cols[c] = vals[c].flatten()
		}
	}
	return &Relation{name: name, schema: NewSchema(attrs...), cols: cols, rows: rows}, nil
}

// inferColumn types one column from its raw fields: KindFloat when every
// non-empty field parses as a float, KindString otherwise. The column is
// allocated once; a float column is parsed once, and a column demoted on
// a field that does not parse is refilled as strings in place.
func inferColumn(fields *colBuf[string]) ([]Value, Kind) {
	if fields.n == 0 {
		return nil, KindFloat
	}
	col := make([]Value, fields.n)
	i := 0
	numeric := fields.each(func(f string) bool {
		v, err := Parse(f, KindFloat)
		col[i] = v
		i++
		return err == nil
	})
	if numeric {
		return col, KindFloat
	}
	i = 0
	fields.each(func(f string) bool {
		col[i], _ = Parse(f, KindString) // cannot fail for KindString
		i++
		return true
	})
	return col, KindString
}

// colBuf buffers one column's cells in chunks. Each new chunk is as large
// as all earlier ones together, clamped to [colChunkMin, colChunkMax], so
// growing never copies the cells already held, and the unused tail is
// never larger than the cells held or one minimum chunk. flatten then
// copies the cells once into a slice of the final length.
type colBuf[T any] struct {
	chunks [][]T
	n      int
}

const (
	colChunkMin = 64
	colChunkMax = 1 << 14
)

func (b *colBuf[T]) push(v T) {
	last := len(b.chunks) - 1
	if last < 0 || len(b.chunks[last]) == cap(b.chunks[last]) {
		b.chunks = append(b.chunks, make([]T, 0, min(max(b.n, colChunkMin), colChunkMax)))
		last++
	}
	b.chunks[last] = append(b.chunks[last], v)
	b.n++
}

// each calls fn on the cells in order until fn returns false, and
// reports whether every call returned true.
func (b *colBuf[T]) each(fn func(T) bool) bool {
	for _, chunk := range b.chunks {
		for _, v := range chunk {
			if !fn(v) {
				return false
			}
		}
	}
	return true
}

// flatten returns the cells as one exact-size slice (nil when empty).
func (b *colBuf[T]) flatten() []T {
	if b.n == 0 {
		return nil
	}
	out := make([]T, 0, b.n)
	for _, chunk := range b.chunks {
		out = append(out, chunk...)
	}
	return out
}

// foldCR rewrites every run of '\r' directly before a '\n' in a field to
// the bare '\n'. encoding/csv folds a single "\r\n" inside a quoted
// field, so "\r\r\n" reads as "\r\n"; WriteCSV emits that unchanged and
// the next read would fold it again to "\n". Folding whole runs makes the
// first read final. Fields without a '\r' are returned without
// allocating.
func foldCR(f string) string {
	if strings.IndexByte(f, '\r') < 0 {
		return f
	}
	var b strings.Builder
	b.Grow(len(f))
	for {
		i := strings.IndexByte(f, '\r')
		if i < 0 {
			b.WriteString(f)
			return b.String()
		}
		j := i
		for j < len(f) && f[j] == '\r' {
			j++
		}
		b.WriteString(f[:i])
		if j == len(f) || f[j] != '\n' {
			b.WriteString(f[i:j])
		}
		f = f[j:]
	}
}

// checkFields enforces the per-field byte bound on one CSV record.
func checkFields(rec []string, lim Limits) error {
	if lim.MaxFieldBytes <= 0 {
		return nil
	}
	for _, f := range rec {
		if len(f) > lim.MaxFieldBytes {
			return fmt.Errorf("relation: read CSV: %w",
				&ErrInputTooLarge{What: "field bytes", Limit: int64(lim.MaxFieldBytes), Got: int64(len(f))})
		}
	}
	return nil
}

// ReadCSVAuto decodes a relation from in-memory CSV bytes under Limits,
// inferring column kinds: a column whose every non-null value parses as
// numeric becomes KindFloat, everything else stays KindString. It is the
// single type-inference path shared by the deptool CLI and the server's
// request decoder, so a relation posted to the server types identically
// to the same bytes read from a file. The bytes are parsed once: kinds
// are inferred from the buffered fields of each column.
func ReadCSVAuto(name string, data []byte, lim Limits) (*Relation, error) {
	if lim.MaxBytes > 0 && int64(len(data)) > lim.MaxBytes {
		return nil, fmt.Errorf("relation: read CSV: %w",
			&ErrInputTooLarge{What: "bytes", Limit: lim.MaxBytes, Got: int64(len(data))})
	}
	var src io.Reader = bytes.NewReader(data)
	if lim.MaxBytes > 0 {
		src = &limitedReader{src: src, max: lim.MaxBytes}
	}
	return readCSV(name, src, nil, true, lim)
}

// WriteCSV encodes the relation as CSV with a header record.
func WriteCSV(r *Relation, dst io.Writer) error {
	cw := csv.NewWriter(dst)
	writeRecord := func(rec []string, what string) error {
		// encoding/csv renders a lone empty field as a blank line, which
		// readers then skip as empty — the record would vanish on a round
		// trip (found by FuzzCSVRoundTrip). Emit an explicit "" instead.
		if len(rec) == 1 && rec[0] == "" {
			cw.Flush()
			if err := cw.Error(); err != nil {
				return fmt.Errorf("relation: write CSV %s: %w", what, err)
			}
			if _, err := io.WriteString(dst, "\"\"\n"); err != nil {
				return fmt.Errorf("relation: write CSV %s: %w", what, err)
			}
			return nil
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("relation: write CSV %s: %w", what, err)
		}
		return nil
	}
	if err := writeRecord(r.Schema().Names(), "header"); err != nil {
		return err
	}
	rec := make([]string, r.Cols())
	for i := 0; i < r.Rows(); i++ {
		for c := 0; c < r.Cols(); c++ {
			v := r.Value(i, c)
			if v.IsNull() {
				rec[c] = ""
			} else {
				rec[c] = v.String()
			}
		}
		if err := writeRecord(rec, fmt.Sprintf("row %d", i)); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
