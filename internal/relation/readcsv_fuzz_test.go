// Differential fuzz harness for the one-pass CSV readers: ReadCSVAuto and
// ReadCSVLimits must agree with the two-pass reference below — the reader
// they replaced — on the error text, the schema and every cell, under
// zero and fuzzed Limits and under fuzzed given kinds.
package relation

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
)

// refReadCSVLimits is the row-at-a-time reader ReadCSVLimits replaced:
// every record is parsed and appended as it is read.
func refReadCSVLimits(name string, src io.Reader, kinds []Kind, lim Limits) (*Relation, error) {
	if lim.MaxBytes > 0 {
		src = &limitedReader{src: src, max: lim.MaxBytes}
	}
	cr := csv.NewReader(src)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation: read CSV header: %w", err)
	}
	if err := checkFields(header, lim); err != nil {
		return nil, err
	}
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
			return nil, fmt.Errorf("relation: duplicate CSV header column %q", h)
		}
		seen[h] = true
		attrs[i] = Attribute{Name: h, Kind: kinds[i]}
	}
	r := New(name, NewSchema(attrs...))
	row := make([]Value, len(header))
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
		if maxRows := lim.effectiveMaxRows(); line-1 > maxRows {
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
			v, err := Parse(foldCR(field), kinds[c])
			if err != nil {
				return nil, fmt.Errorf("relation: CSV line %d column %s: %w", line, header[c], err)
			}
			row[c] = v
		}
		if err := r.Append(row); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// refReadCSVAuto is the two-pass inferring reader ReadCSVAuto replaced:
// read every column as strings, infer kinds, then read again typed.
func refReadCSVAuto(name string, data []byte, lim Limits) (*Relation, error) {
	if lim.MaxBytes > 0 && int64(len(data)) > lim.MaxBytes {
		return nil, fmt.Errorf("relation: read CSV: %w",
			&ErrInputTooLarge{What: "bytes", Limit: lim.MaxBytes, Got: int64(len(data))})
	}
	raw, err := refReadCSVLimits(name, bytes.NewReader(data), nil, lim)
	if err != nil {
		return nil, err
	}
	kinds := make([]Kind, raw.Cols())
	for c := 0; c < raw.Cols(); c++ {
		kinds[c] = KindFloat
		for row := 0; row < raw.Rows(); row++ {
			v := raw.Value(row, c)
			if v.IsNull() {
				continue
			}
			if _, err := Parse(v.Str(), KindFloat); err != nil {
				kinds[c] = KindString
				break
			}
		}
	}
	return refReadCSVLimits(name, bytes.NewReader(data), kinds, lim)
}

// sameRead fails unless got and want are the same outcome: equal error
// texts, or equal schemas and cells identical in kind, nullness, float
// bits and string payload.
func sameRead(t *testing.T, what string, got, want *Relation, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Name() != want.Name() || got.Schema().String() != want.Schema().String() || got.Rows() != want.Rows() {
		t.Fatalf("%s: %s%s x%d, reference %s%s x%d", what,
			got.Name(), got.Schema(), got.Rows(), want.Name(), want.Schema(), want.Rows())
	}
	for i := 0; i < got.Rows(); i++ {
		for c := 0; c < got.Cols(); c++ {
			g, w := got.Value(i, c), want.Value(i, c)
			if g.Kind() != w.Kind() || g.IsNull() != w.IsNull() ||
				math.Float64bits(g.Num()) != math.Float64bits(w.Num()) || g.Str() != w.Str() {
				t.Fatalf("%s: cell (%d,%d) = %#v, reference %#v", what, i, c, g, w)
			}
		}
	}
}

// fuzzKinds derives one kind per header column of data from bits, two
// bits a column; a set top bit adds a surplus kind to hit the width check.
func fuzzKinds(data string, bits uint16) []Kind {
	n := 1
	if header, err := csv.NewReader(strings.NewReader(data)).Read(); err == nil {
		n = len(header)
	}
	if bits&0x8000 != 0 {
		n++
	}
	kinds := make([]Kind, n)
	for c := range kinds {
		kinds[c] = Kind(bits>>(2*(c%7))&3) % 3
	}
	return kinds
}

func FuzzReadCSVAuto(f *testing.F) {
	f.Add("name,city,stars\nAstoria,Wien,4\nHilton,Wien,5\n", uint16(0), uint8(0), uint8(0), uint16(0))
	// Column a is demoted to string on its last row.
	f.Add("a,b\n1,x\n2,y\n3,z\nq,w\n", uint16(1), uint8(0), uint8(0), uint16(0))
	// 1e400 is out of float64 range: ParseFloat fails, the column stays string.
	f.Add("a,b\n1e400,1\n2,2\n", uint16(5), uint8(0), uint8(0), uint16(0))
	f.Add("a,b,c,d,e\n0x1p-2,NaN,-0,Inf, 1\n0,nan,+0,-Inf,1\n", uint16(0x155), uint8(0), uint8(0), uint16(0))
	f.Add("a,b\n\"x\r\r\ny\",1\n\"\r\",2\n", uint16(0), uint8(0), uint8(0), uint16(0))
	f.Add("a,b\n1\n2,3\n", uint16(0), uint8(0), uint8(0), uint16(0))
	f.Add("a,a\n1,2\n", uint16(0), uint8(0), uint8(0), uint16(0))
	f.Add("a\n\n\n1\n\n", uint16(1), uint8(0), uint8(0), uint16(0))
	f.Add("a\n", uint16(1), uint8(0), uint8(0), uint16(0))
	// Given kinds: line 2 fails to parse as a float before line 3's bare
	// quote fails to read; the earlier line wins.
	f.Add("a\nx\n1\"2\n", uint16(1), uint8(0), uint8(0), uint16(0))
	f.Add("a,b\n1,2\n3,4\n5,6\n", uint16(0), uint8(2), uint8(0), uint16(0))
	f.Add("ab,c\nlong,1\n", uint16(0), uint8(0), uint8(3), uint16(0))
	f.Add("a,b\n1,2\n3,4\n5,6\n", uint16(0), uint8(0), uint8(0), uint16(12))
	f.Add("a,b\n1,2\n3,4\n", uint16(0x8000), uint8(0), uint8(0), uint16(0))

	f.Fuzz(func(t *testing.T, data string, kindBits uint16, maxRows, maxField uint8, maxBytes uint16) {
		lim := Limits{MaxBytes: int64(maxBytes), MaxRows: int(maxRows), MaxFieldBytes: int(maxField)}
		for _, l := range []Limits{{}, lim} {
			got, gotErr := ReadCSVAuto("fuzz", []byte(data), l)
			want, wantErr := refReadCSVAuto("fuzz", []byte(data), l)
			sameRead(t, fmt.Sprintf("ReadCSVAuto %+v", l), got, want, gotErr, wantErr)

			for _, kinds := range [][]Kind{nil, fuzzKinds(data, kindBits)} {
				got, gotErr := ReadCSVLimits("fuzz", strings.NewReader(data), kinds, l)
				want, wantErr := refReadCSVLimits("fuzz", strings.NewReader(data), kinds, l)
				sameRead(t, fmt.Sprintf("ReadCSVLimits %v %+v", kinds, l), got, want, gotErr, wantErr)
			}
		}
	})
}
