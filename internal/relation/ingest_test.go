// Ingest cost on the synthetic hotel corpus: an allocation bound and
// micro-benchmarks for the inferred-kind CSV reader the CLI, server and
// job runner share, and for the multi-column grouping every partition
// and counting measure starts from.
package relation_test

import (
	"bytes"
	"runtime"
	"testing"

	"deptree/internal/gen"
	"deptree/internal/relation"
)

// hotelsCSV renders a synthetic hotel relation with the variety, error
// and duplicate rates the serving benchmark posts.
func hotelsCSV(tb testing.TB, rows int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	r := gen.Hotels(gen.HotelConfig{Rows: rows, Seed: 5, VarietyRate: 0.05, ErrorRate: 0.02, DuplicateRate: 0.05})
	if err := relation.WriteCSV(r, &buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// ingestAlloc returns the bytes ReadCSVAuto allocates reading data.
func ingestAlloc(t *testing.T, data []byte) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r, err := relation.ReadCSVAuto("alloc", data, relation.Limits{})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(r)
	return after.TotalAlloc - before.TotalAlloc
}

// Ingest must allocate in proportion to the records it keeps, not to a
// row count guessed from the raw bytes: blank lines are no records, so a
// header followed by a mebibyte of them allocates little more than the
// reader's own buffers.
func TestReadCSVAutoAllocBound(t *testing.T) {
	blank := append([]byte("a\n"), bytes.Repeat([]byte("\n"), 1<<20)...)
	if got, limit := ingestAlloc(t, blank), uint64(len(blank)); got > limit {
		t.Errorf("header + %d blank lines allocated %d bytes, want <= %d", len(blank)-2, got, limit)
	}
	hotels := hotelsCSV(t, 20_000)
	// The one-pass reader allocates about 13 MB here; the two-pass
	// reader it replaced allocated 81 MB.
	const limit = 20 << 20
	if got := ingestAlloc(t, hotels); got > limit {
		t.Errorf("20k-row hotel CSV (%d bytes) allocated %d bytes, want <= %d", len(hotels), got, limit)
	}
}

var sinkRel *relation.Relation

func BenchmarkReadCSVAuto(b *testing.B) {
	for _, bc := range []struct {
		name string
		rows int
	}{{"20k", 20_000}, {"300k", 300_000}} {
		b.Run(bc.name, func(b *testing.B) {
			data := hotelsCSV(b, bc.rows)
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, err := relation.ReadCSVAuto("hotels", data, relation.Limits{})
				if err != nil {
					b.Fatal(err)
				}
				sinkRel = r
			}
		})
	}
}

var sinkCard int

func BenchmarkGroupCodes(b *testing.B) {
	r := gen.Hotels(gen.HotelConfig{Rows: 20_000, Seed: 5, VarietyRate: 0.05, ErrorRate: 0.02, DuplicateRate: 0.05})
	s := r.Schema()
	// A string pair and a mixed string/numeric pair: the keys partition
	// construction and validation group by.
	sets := [][]int{
		{s.MustIndex("address"), s.MustIndex("region")},
		{s.MustIndex("name"), s.MustIndex("star")},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cols := range sets {
			_, card := r.GroupCodes(cols)
			sinkCard = card
		}
	}
}
