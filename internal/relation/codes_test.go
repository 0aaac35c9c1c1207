package relation_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"deptree/internal/gen"
	"deptree/internal/relation"
)

// keyGroupCodes is the Value.Key-string encoder Codes and GroupCodes
// replaced, kept as their reference: each row's key is the
// '\x1f'-terminated concatenation of its cells' keys, coded in
// first-appearance order.
func keyGroupCodes(r *relation.Relation, cols []int) ([]int, int) {
	codes := make([]int, r.Rows())
	dict := make(map[string]int)
	var b strings.Builder
	for i := 0; i < r.Rows(); i++ {
		b.Reset()
		for _, c := range cols {
			b.WriteString(r.Value(i, c).Key())
			b.WriteByte('\x1f')
		}
		k := b.String()
		c, ok := dict[k]
		if !ok {
			c = len(dict)
			dict[k] = c
		}
		codes[i] = c
	}
	return codes, len(dict)
}

// column builds a one-column relation of the given kind over vals.
func column(kind relation.Kind, vals ...relation.Value) *relation.Relation {
	rows := make([][]relation.Value, len(vals))
	for i, v := range vals {
		rows[i] = []relation.Value{v}
	}
	return relation.MustFromRows("col", relation.NewSchema(relation.Attribute{Name: "a", Kind: kind}), rows)
}

func TestCodesMatchKeyEncoder(t *testing.T) {
	nan := math.NaN()
	mixed := relation.MustFromRows("mixed", relation.NewSchema(
		relation.Attribute{Name: "s", Kind: relation.KindString},
		relation.Attribute{Name: "n", Kind: relation.KindFloat},
	), [][]relation.Value{
		{relation.String("3"), relation.Float(3)},
		{relation.String("3"), relation.Int(3)},
		{relation.Null(relation.KindString), relation.Null(relation.KindFloat)},
		{relation.String(""), relation.Float(0)},
		{relation.String("n:3"), relation.Float(3)},
		{relation.String("3"), relation.Float(3.5)},
		{relation.Null(relation.KindString), relation.Null(relation.KindFloat)},
	})
	cases := []struct {
		name     string
		r        *relation.Relation
		cols     [][]int
		wantCard []int // Codes' cardinality on each column, when pinned
	}{
		{"signed zeros", column(relation.KindFloat, relation.Float(0), relation.Float(math.Copysign(0, -1)), relation.Float(0)), [][]int{{0}}, []int{2}},
		{"NaNs", column(relation.KindFloat, relation.Float(nan), relation.Float(1), relation.Float(math.Float64frombits(0x7ff0000000000abc)), relation.Float(-nan)), [][]int{{0}}, []int{2}},
		{"int and float", column(relation.KindFloat, relation.Int(3), relation.Float(3), relation.Float(3.25)), [][]int{{0}}, []int{2}},
		{"null kinds", column(relation.KindFloat, relation.Null(relation.KindString), relation.Float(1), relation.Null(relation.KindFloat), relation.Null(relation.KindInt)), [][]int{{0}}, []int{2}},
		{"infinities", column(relation.KindFloat, relation.Float(math.Inf(1)), relation.Float(math.Inf(-1)), relation.Float(math.MaxFloat64), relation.Float(math.Inf(1))), [][]int{{0}}, []int{3}},
		{"mixed", mixed, [][]int{{0}, {1}, {0, 1}, {1, 0}, {0, 1, 0}}, []int{4, 4}},
		{"empty", column(relation.KindString), [][]int{nil, {}, {0}}, []int{0}},
		{"no columns", mixed, [][]int{nil, {}}, nil},
		{"hotels", gen.Hotels(gen.HotelConfig{Rows: 500, Seed: 7, VarietyRate: 0.2, ErrorRate: 0.1, DuplicateRate: 0.2}),
			[][]int{{0}, {3}, {4}, {2, 3}, {3, 2}, {1, 4, 5}, {0, 1, 2, 3, 4, 5, 6, 7, 8}}, nil},
		{"categorical", gen.Categorical(2000, []int{2, 7, 40, 1500}, 11), [][]int{{0}, {3}, {0, 1}, {1, 2, 3}, {3, 0}}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i, want := range tc.wantCard {
				if _, card := tc.r.Codes(i); card != want {
					t.Errorf("Codes(%d) card = %d, want %d", i, card, want)
				}
			}
			for _, cols := range tc.cols {
				wantCodes, wantCard := keyGroupCodes(tc.r, cols)
				codes, card := tc.r.GroupCodes(cols)
				if card != wantCard || !reflect.DeepEqual(codes, wantCodes) {
					t.Errorf("GroupCodes(%v) = %v, %d; key encoder %v, %d", cols, codes, card, wantCodes, wantCard)
				}
				if len(cols) != 1 {
					continue
				}
				codes, card = tc.r.Codes(cols[0])
				if card != wantCard || !reflect.DeepEqual(codes, wantCodes) {
					t.Errorf("Codes(%d) = %v, %d; key encoder %v, %d", cols[0], codes, card, wantCodes, wantCard)
				}
			}
		})
	}
}

// The key encoder joined cell keys with '\x1f', so a payload holding the
// separator could make two different tuples share a key. Typed codes
// keep them apart.
func TestGroupCodesSeparatorInPayload(t *testing.T) {
	r := relation.MustFromRows("sep", relation.Strings("a", "b"), [][]relation.Value{
		{relation.String("a\x1fs:b"), relation.String("c")},
		{relation.String("a"), relation.String("b\x1fs:c")},
	})
	if _, card := keyGroupCodes(r, []int{0, 1}); card != 1 {
		t.Fatalf("key encoder card = %d; the collision this test pins is gone", card)
	}
	if codes, card := r.GroupCodes([]int{0, 1}); card != 2 || codes[0] == codes[1] {
		t.Fatalf("GroupCodes = %v, %d; want two groups", codes, card)
	}
}
