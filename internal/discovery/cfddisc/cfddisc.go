// Package cfddisc implements CFD discovery (paper §2.5.3): CFDMiner-style
// mining of minimal constant CFDs [35],[36], and the greedy near-optimal
// tableau construction of Golab et al. [49] for a given embedded FD.
// Generating an optimal tableau is NP-complete [49]; the greedy algorithm
// trades optimality for a logarithmic approximation, which the benchmarks
// exercise.
package cfddisc

import (
	"context"
	"sort"
	"strconv"
	"strings"

	"deptree/internal/attrset"
	"deptree/internal/deps/cfd"
	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Options configures constant-CFD mining.
type Options struct {
	// MinSupport is the minimum number of tuples a pattern must match
	// (default 2).
	MinSupport int
	// MaxLHS bounds the number of constant attributes in a pattern
	// (default 3).
	MaxLHS int
	// Workers fans the per-pattern conclusion checks across goroutines;
	// output is identical for every worker count.
	Workers int
	// Budget bounds the run; exhaustion truncates to a deterministic
	// prefix of the level-wise pattern enumeration.
	Budget engine.Budget
	// Obs optionally receives metrics and spans; nil is a no-op.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MinSupport == 0 {
		o.MinSupport = 2
	}
	if o.MaxLHS == 0 {
		o.MaxLHS = 3
	}
	return o
}

// item is one (column, value) constant of a pattern.
type item struct {
	col int
	key string
}

// pattern is a sorted constant itemset.
type pattern []item

func (p pattern) cols() attrset.Set {
	var s attrset.Set
	for _, it := range p {
		s = s.Add(it.col)
	}
	return s
}

func (p pattern) id() string {
	var b strings.Builder
	for _, it := range p {
		b.WriteString(strconv.Itoa(it.col))
		b.WriteByte(':')
		b.WriteString(it.key)
		b.WriteByte('\x1f')
	}
	return b.String()
}

// Result is a constant-CFD mining outcome; a Partial run covers a
// deterministic prefix of the level-wise pattern enumeration.
type Result struct {
	CFDs []cfd.CFD
	engine.Outcome
	// Completed is the number of pattern nodes whose conclusions were
	// checked.
	Completed int
}

// batch is the fixed MapBudget stripe width over pattern nodes. Fixed so
// the truncation point is worker-independent.
const batch = 8

// ConstantCFDs mines minimal constant CFDs (X = t_p → A = a): patterns of
// constants whose matching tuples all share one A value, with support ≥
// MinSupport, and no sub-pattern already implying the same conclusion.
func ConstantCFDs(r *relation.Relation, opts Options) []cfd.CFD {
	return DiscoverContext(context.Background(), r, opts).CFDs
}

// DiscoverContext is ConstantCFDs under a context and Options.Budget.
// Within one level the per-node conclusion scans are independent and fan
// out; the minimality bookkeeping then replays the completed node prefix
// in the sequential order, so results are byte-identical to the
// sequential miner at any worker count. Growing the next level stays
// sequential (it needs the full current level).
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) Result {
	opts = opts.withDefaults()
	n := r.Cols()
	if n == 0 || r.Rows() == 0 {
		return Result{}
	}
	// rowsOf maps a pattern id to its matching rows; level-wise growth.
	type node struct {
		pat  pattern
		rows []int
	}
	// Level 1: single items.
	var level []node
	for c := 0; c < n; c++ {
		groups := map[string][]int{}
		for row := 0; row < r.Rows(); row++ {
			k := r.Value(row, c).Key()
			groups[k] = append(groups[k], row)
		}
		keys := make([]string, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if len(groups[k]) >= opts.MinSupport {
				level = append(level, node{pat: pattern{{col: c, key: k}}, rows: groups[k]})
			}
		}
	}
	reg := opts.Obs
	run := engine.Start(ctx, "cfddisc", opts.Workers, opts.Budget, reg)
	defer run.Close()
	run.SetAttr("rows", r.Rows())
	run.SetAttr("level-1", len(level))
	mineSpan := run.Child(obs.KindPhase, "pattern-mining")

	// implied records conclusions already derived from some sub-pattern:
	// map from conclusion (col, valueKey) to the list of pattern ids.
	type conclusion struct {
		col int
		key string
	}
	impliedBy := map[conclusion][]pattern{}
	var results []cfd.CFD
	addResult := func(p pattern, col int, rows []int) {
		// Minimality: some sub-pattern already implies this conclusion?
		key := r.Value(rows[0], col).Key()
		for _, prev := range impliedBy[conclusion{col, key}] {
			if subPattern(prev, p) {
				return
			}
		}
		impliedBy[conclusion{col, key}] = append(impliedBy[conclusion{col, key}], p)
		// Assemble the CFD: X constants → A = a.
		x := make([]string, len(p))
		cells := make([]cfd.Cell, 0, len(p)+1)
		for i, it := range p {
			x[i] = r.Schema().Attr(it.col).Name
			cells = append(cells, cfd.Const(r.Value(rows[0], it.col)))
		}
		y := []string{r.Schema().Attr(col).Name}
		cells = append(cells, cfd.Const(r.Value(rows[0], col)))
		c, err := cfd.New(r.Schema(), x, y, cells)
		if err != nil {
			panic(err) // constructed from schema: cannot fail
		}
		results = append(results, c)
	}
	completed := 0
	var stopErr error
	for depth := 1; depth <= opts.MaxLHS && len(level) > 0; depth++ {
		// Fan out: each node independently finds its conclusion columns
		// (ascending), the order the sequential miner visits them in.
		concl, done, err := engine.MapBudget(run.Pool, len(level), batch, func(i int) []int {
			nd := level[i]
			cols := nd.pat.cols()
			var out []int
			for a := 0; a < n; a++ {
				if cols.Has(a) {
					continue
				}
				k0 := r.Value(nd.rows[0], a).Key()
				same := true
				for _, row := range nd.rows[1:] {
					if r.Value(row, a).Key() != k0 {
						same = false
						break
					}
				}
				if same {
					out = append(out, a)
				}
			}
			return out
		})
		completed += done
		// Replay the completed prefix sequentially for minimality.
		for i, cols := range concl {
			for _, a := range cols {
				addResult(level[i].pat, a, level[i].rows)
			}
		}
		if err != nil {
			stopErr = err
			break
		}
		// Grow: combine nodes sharing all but one item.
		seen := map[string]bool{}
		var next []node
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				merged, ok := mergePatterns(level[i].pat, level[j].pat)
				if !ok || seen[merged.id()] {
					continue
				}
				seen[merged.id()] = true
				rows := intersectSorted(level[i].rows, level[j].rows)
				if len(rows) >= opts.MinSupport {
					next = append(next, node{pat: merged, rows: rows})
				}
			}
		}
		level = next
	}
	mineSpan.SetAttr("completed", completed)
	mineSpan.End()
	reg.Counter("cfddisc.nodes.checked").Add(int64(completed))
	reg.Counter("cfddisc.cfds.valid").Add(int64(len(results)))
	return Result{CFDs: results, Outcome: run.Finish(stopErr), Completed: completed}
}

// subPattern reports whether a ⊆ b as item sets.
func subPattern(a, b pattern) bool {
	i := 0
	for _, it := range b {
		if i < len(a) && a[i] == it {
			i++
		}
	}
	return i == len(a)
}

// mergePatterns unions two same-size patterns differing in exactly one
// item, producing a size+1 pattern; ok is false otherwise or when the
// union binds one column twice.
func mergePatterns(a, b pattern) (pattern, bool) {
	merged := append(pattern{}, a...)
	added := 0
	for _, it := range b {
		if !containsItem(merged, it) {
			merged = append(merged, it)
			added++
		}
	}
	if added != 1 {
		return nil, false
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].col != merged[j].col {
			return merged[i].col < merged[j].col
		}
		return merged[i].key < merged[j].key
	})
	// One column, one constant.
	for i := 1; i < len(merged); i++ {
		if merged[i].col == merged[i-1].col {
			return nil, false
		}
	}
	return merged, true
}

func containsItem(p pattern, it item) bool {
	for _, x := range p {
		if x == it {
			return true
		}
	}
	return false
}

func intersectSorted(a, b []int) []int {
	var out []int
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// GreedyTableau builds a near-optimal pattern tableau for the embedded FD
// X → A following Golab et al. [49]: candidate patterns are the distinct
// X-values (as constant rows) plus the all-wildcard row; a pattern is
// admissible when the FD holds with confidence ≥ minConf on its matching
// tuples; patterns are picked greedily by marginal tuple coverage until
// coverage ≥ minCover of the admissible tuples.
func GreedyTableau(r *relation.Relation, x []int, a int, minConf, minCover float64) []cfd.CFD {
	if r.Rows() == 0 {
		return nil
	}
	xCodes, xCard := r.GroupCodes(x)
	aCodes, _ := r.Codes(a)
	groups := make([][]int, xCard)
	for row, g := range xCodes {
		groups[g] = append(groups[g], row)
	}
	// Admissible groups: confidence = majority fraction ≥ minConf.
	type candidate struct {
		rows []int
		conf float64
	}
	var cands []candidate
	admissibleTotal := 0
	for _, rows := range groups {
		counts := map[int]int{}
		best := 0
		for _, row := range rows {
			counts[aCodes[row]]++
			if counts[aCodes[row]] > best {
				best = counts[aCodes[row]]
			}
		}
		conf := float64(best) / float64(len(rows))
		if conf >= minConf {
			cands = append(cands, candidate{rows: rows, conf: conf})
			admissibleTotal += len(rows)
		}
	}
	if admissibleTotal == 0 {
		return nil
	}
	// Greedy selection by coverage.
	sort.Slice(cands, func(i, j int) bool {
		if len(cands[i].rows) != len(cands[j].rows) {
			return len(cands[i].rows) > len(cands[j].rows)
		}
		return cands[i].rows[0] < cands[j].rows[0]
	})
	covered := 0
	var out []cfd.CFD
	xNames := make([]string, len(x))
	for i, c := range x {
		xNames[i] = r.Schema().Attr(c).Name
	}
	aName := r.Schema().Attr(a).Name
	for _, cand := range cands {
		if float64(covered) >= minCover*float64(admissibleTotal) {
			break
		}
		cells := make([]cfd.Cell, 0, len(x)+1)
		for _, c := range x {
			cells = append(cells, cfd.Const(r.Value(cand.rows[0], c)))
		}
		cells = append(cells, cfd.Wildcard())
		c, err := cfd.New(r.Schema(), xNames, []string{aName}, cells)
		if err != nil {
			panic(err)
		}
		out = append(out, c)
		covered += len(cand.rows)
	}
	return out
}
