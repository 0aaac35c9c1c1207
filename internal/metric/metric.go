// Package metric implements the similarity/distance metrics that the
// heterogeneous-data dependency family builds on (paper §3): edit distance
// and friends for text attributes, absolute difference for numerical
// attributes, and the fuzzy resemblance relations of FFDs (§3.6).
//
// A metric d satisfies non-negativity, identity of indiscernibles and
// symmetry (§3.3.1). Levenshtein additionally satisfies the triangle
// inequality; Jaro-Winkler similarity does not induce a metric and is
// exposed as a similarity score only.
package metric

import (
	"math"

	"deptree/internal/relation"
)

// Metric computes a distance between two values of one attribute. Distances
// are ≥ 0; NaN signals incomparable operands (e.g. nulls).
type Metric interface {
	// Distance returns d(a, b).
	Distance(a, b relation.Value) float64
	// Name identifies the metric in rendered dependencies.
	Name() string
}

// Equality is the discrete metric: 0 if the values are equal, 1 otherwise.
// Under Equality every similarity-based dependency degenerates to its
// equality-based special case, which is exactly how the family-tree edges
// into the heterogeneous branch are witnessed.
type Equality struct{}

// Distance implements Metric.
func (Equality) Distance(a, b relation.Value) float64 {
	if a.Equal(b) {
		return 0
	}
	return 1
}

// Name implements Metric.
func (Equality) Name() string { return "equality" }

// Absolute is |a−b| on numeric values, the default metric for numerical
// attributes (§3.3.1). Non-numeric operands yield NaN.
type Absolute struct{}

// Distance implements Metric.
func (Absolute) Distance(a, b relation.Value) float64 { return a.Distance(b) }

// Name implements Metric.
func (Absolute) Name() string { return "abs" }

// Levenshtein is the edit distance on string payloads: minimum number of
// insertions, deletions and substitutions. Non-string operands are rendered
// via Value.String first, so numeric columns can still be compared textually
// when a schema is dirty.
type Levenshtein struct{}

// Distance implements Metric.
func (Levenshtein) Distance(a, b relation.Value) float64 {
	if a.IsNull() || b.IsNull() {
		return math.NaN()
	}
	return float64(EditDistance(a.String(), b.String()))
}

// Name implements Metric.
func (Levenshtein) Name() string { return "levenshtein" }

// EditDistance computes the Levenshtein distance between two strings over
// runes, using the classic two-row dynamic program.
func EditDistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// EditDistanceWithin reports whether EditDistance(a, b) ≤ k without always
// computing the full matrix: it walks only the 2k+1 diagonal band. Threshold
// checks dominate DD/MD validation, so the early exit matters.
func EditDistanceWithin(a, b string, k int) bool {
	if k < 0 {
		return false
	}
	ra, rb := []rune(a), []rune(b)
	if abs(len(ra)-len(rb)) > k {
		return false
	}
	// Band dynamic program. inf marks cells outside the band.
	const inf = math.MaxInt32
	width := 2*k + 1
	prev := make([]int, width)
	cur := make([]int, width)
	// Row 0: prev[d] = j where j = d - k ... offset mapping j = i + (d - k).
	for d := 0; d < width; d++ {
		j := d - k
		if j >= 0 && j <= len(rb) {
			prev[d] = j
		} else {
			prev[d] = inf
		}
	}
	for i := 1; i <= len(ra); i++ {
		for d := 0; d < width; d++ {
			j := i + d - k
			if j < 0 || j > len(rb) {
				cur[d] = inf
				continue
			}
			best := inf
			if j > 0 && d > 0 && cur[d-1] < inf { // insertion into a
				best = cur[d-1] + 1
			}
			if d < width-1 && prev[d+1] < inf && prev[d+1]+1 < best { // deletion
				best = prev[d+1] + 1
			}
			if j > 0 && prev[d] < inf { // substitution/match
				cost := 1
				if ra[i-1] == rb[j-1] {
					cost = 0
				}
				if prev[d]+cost < best {
					best = prev[d] + cost
				}
			}
			if j == 0 {
				best = i
			}
			cur[d] = best
		}
		prev, cur = cur, prev
	}
	d := len(rb) - len(ra) + k
	return d >= 0 && d < width && prev[d] <= k
}

// DamerauOSA is the optimal-string-alignment variant of Damerau-Levenshtein:
// edit distance with adjacent transpositions (each substring edited at most
// once). Useful for typo-shaped heterogeneity in record matching.
type DamerauOSA struct{}

// Distance implements Metric.
func (DamerauOSA) Distance(a, b relation.Value) float64 {
	if a.IsNull() || b.IsNull() {
		return math.NaN()
	}
	return float64(OSADistance(a.String(), b.String()))
}

// Name implements Metric.
func (DamerauOSA) Name() string { return "damerau-osa" }

// OSADistance computes the optimal string alignment distance.
func OSADistance(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	rows := make([][]int, len(ra)+1)
	for i := range rows {
		rows[i] = make([]int, len(rb)+1)
		rows[i][0] = i
	}
	for j := 0; j <= len(rb); j++ {
		rows[0][j] = j
	}
	for i := 1; i <= len(ra); i++ {
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			d := min(rows[i-1][j]+1, rows[i][j-1]+1, rows[i-1][j-1]+cost)
			if i > 1 && j > 1 && ra[i-1] == rb[j-2] && ra[i-2] == rb[j-1] {
				if t := rows[i-2][j-2] + 1; t < d {
					d = t
				}
			}
			rows[i][j] = d
		}
	}
	return rows[len(ra)][len(rb)]
}

// QGramJaccard is 1 − Jaccard similarity of the q-gram multisets of the two
// strings, a cheap token-based distance in [0,1] commonly used for blocking
// in record matching.
type QGramJaccard struct {
	// Q is the gram length; 0 defaults to 2 (bigrams).
	Q int
}

// Distance implements Metric.
func (m QGramJaccard) Distance(a, b relation.Value) float64 {
	if a.IsNull() || b.IsNull() {
		return math.NaN()
	}
	return 1 - JaccardQGrams(a.String(), b.String(), m.q())
}

// Name implements Metric.
func (m QGramJaccard) Name() string { return "qgram-jaccard" }

func (m QGramJaccard) q() int {
	if m.Q <= 0 {
		return 2
	}
	return m.Q
}

// JaccardQGrams computes |grams(a) ∩ grams(b)| / |grams(a) ∪ grams(b)| over
// q-gram sets. Two empty strings have similarity 1.
func JaccardQGrams(a, b string, q int) float64 {
	ga, gb := qgrams(a, q), qgrams(b, q)
	if len(ga) == 0 && len(gb) == 0 {
		return 1
	}
	inter := 0
	for g := range ga {
		if gb[g] {
			inter++
		}
	}
	union := len(ga) + len(gb) - inter
	return float64(inter) / float64(union)
}

func qgrams(s string, q int) map[string]bool {
	out := make(map[string]bool)
	r := []rune(s)
	if len(r) == 0 {
		return out
	}
	if len(r) < q {
		out[string(r)] = true
		return out
	}
	for i := 0; i+q <= len(r); i++ {
		out[string(r[i:i+q])] = true
	}
	return out
}

// JaroWinkler returns the Jaro-Winkler similarity in [0,1] (1 = identical).
// It is a similarity, not a metric; use 1−sim as a dissimilarity score.
func JaroWinkler(a, b string) float64 {
	sim := jaro(a, b)
	// Winkler prefix boost, standard p=0.1 over at most 4 chars.
	prefix := 0
	ra, rb := []rune(a), []rune(b)
	for prefix < len(ra) && prefix < len(rb) && prefix < 4 && ra[prefix] == rb[prefix] {
		prefix++
	}
	return sim + float64(prefix)*0.1*(1-sim)
}

func jaro(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 && len(rb) == 0 {
		return 1
	}
	if len(ra) == 0 || len(rb) == 0 {
		return 0
	}
	window := max(len(ra), len(rb))/2 - 1
	if window < 0 {
		window = 0
	}
	matchA := make([]bool, len(ra))
	matchB := make([]bool, len(rb))
	matches := 0
	for i := range ra {
		lo, hi := i-window, i+window+1
		if lo < 0 {
			lo = 0
		}
		if hi > len(rb) {
			hi = len(rb)
		}
		for j := lo; j < hi; j++ {
			if !matchB[j] && ra[i] == rb[j] {
				matchA[i], matchB[j] = true, true
				matches++
				break
			}
		}
	}
	if matches == 0 {
		return 0
	}
	transpositions := 0
	j := 0
	for i := range ra {
		if !matchA[i] {
			continue
		}
		for !matchB[j] {
			j++
		}
		if ra[i] != rb[j] {
			transpositions++
		}
		j++
	}
	m := float64(matches)
	return (m/float64(len(ra)) + m/float64(len(rb)) + (m-float64(transpositions)/2)/m) / 3
}

// ForKind returns the library default metric for a value kind: Levenshtein
// for strings, Absolute for numerics.
func ForKind(k relation.Kind) Metric {
	if k == relation.KindString {
		return Levenshtein{}
	}
	return Absolute{}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
