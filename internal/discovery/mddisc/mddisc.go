// Package mddisc implements matching dependency discovery after Song &
// Chen [85],[87] (paper §3.7.3): exact discovery of MDs meeting support
// and confidence requirements over candidate similarity thresholds, a
// statistical first-k approximation with the same interface, and relative
// candidate keys (RCKs) [90] — minimal determinant attribute sets whose MD
// meets the requirements.
package mddisc

import (
	"context"
	"sort"

	"deptree/internal/attrset"
	"deptree/internal/deps/md"
	"deptree/internal/engine"
	"deptree/internal/metric"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Options configures MD discovery.
type Options struct {
	// RHS are the columns to identify (default: the last column — the
	// documented servable default used by `deptool discover -algo md`).
	RHS []int
	// LHSCols are the candidate determinant attributes (defaults to all
	// columns not in RHS).
	LHSCols []int
	// MinSupport is the minimum fraction of tuple pairs matching the LHS
	// (default 0.01).
	MinSupport float64
	// MinConfidence is the minimum fraction of matching pairs identified
	// on the RHS (default 0.9).
	MinConfidence float64
	// Thresholds are the candidate similarity thresholds per attribute
	// kind; default {0, 1, 2, 3} for strings, {0} for numerics.
	Thresholds []float64
	// FirstK, when > 0, evaluates support/confidence on only the first K
	// tuples — the statistical approximation of [87] with bounded relative
	// error for stationary tuple order.
	FirstK int
	// Workers fans the per-attribute threshold searches out across
	// goroutines. 0 or 1 runs the exact sequential path; output is
	// identical for every worker count.
	Workers int
	// Budget bounds the run; the zero value is unlimited. An exhausted
	// budget truncates discovery to a prefix of the candidate attributes
	// and the Result reports Partial.
	Budget engine.Budget
	// Obs optionally receives the run's metrics and spans. Nil is a full
	// no-op; observation never changes output.
	Obs *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.MinSupport == 0 {
		o.MinSupport = 0.01
	}
	if o.MinConfidence == 0 {
		o.MinConfidence = 0.9
	}
	if o.Thresholds == nil {
		o.Thresholds = []float64{0, 1, 2, 3}
	}
	return o
}

// Result is an MD discovery outcome. A Partial result covers a
// deterministic prefix of the candidate-attribute enumeration order.
type Result struct {
	MDs []md.MD
	engine.Outcome
	// Completed is the number of candidate attributes searched.
	Completed int
}

// batch is the fixed MapBudget stripe width: candidate attributes are
// heavy units (each scans all tuple pairs per threshold), so truncation
// keeps per-attribute granularity. Fixed per algorithm so the truncation
// point is worker-independent.
const batch = 4

// Discover returns single-attribute-LHS MDs meeting the support and
// confidence requirements, each with the maximal admissible threshold (the
// most general matching rule).
func Discover(r *relation.Relation, opts Options) []md.MD {
	return DiscoverContext(context.Background(), r, opts).MDs
}

// DiscoverContext is Discover under a context and Options.Budget.
func DiscoverContext(ctx context.Context, r *relation.Relation, opts Options) Result {
	opts = opts.withDefaults()
	eval := r
	if opts.FirstK > 0 && opts.FirstK < r.Rows() {
		eval = r.Select(func(row int) bool { return row < opts.FirstK })
	}
	rhsCols := opts.RHS
	if rhsCols == nil && r.Cols() > 0 {
		rhsCols = []int{r.Cols() - 1}
	}
	cols := opts.LHSCols
	if cols == nil {
		rhs := map[int]bool{}
		for _, c := range rhsCols {
			rhs[c] = true
		}
		for c := 0; c < r.Cols(); c++ {
			if !rhs[c] {
				cols = append(cols, c)
			}
		}
	}
	reg := opts.Obs
	run := engine.Start(ctx, "mddisc", opts.Workers, opts.Budget, reg)
	defer run.Close()
	run.SetAttr("rows", r.Rows())
	run.SetAttr("candidates", len(cols))

	searchSpan := run.Child(obs.KindPhase, "threshold-search")
	out, done, err := engine.Keep(run.Pool, len(cols), batch, func(i int) (md.MD, bool) {
		c := cols[i]
		m := metric.ForKind(r.Schema().Attr(c).Kind)
		best, ok := -1.0, false
		for _, t := range opts.Thresholds {
			cand := md.MD{
				LHS:    []md.SimAttr{{Col: c, Metric: m, MaxDist: t}},
				RHS:    rhsCols,
				Schema: r.Schema(),
			}
			support, conf := cand.SupportConfidence(eval)
			if support >= opts.MinSupport && conf >= opts.MinConfidence {
				if !ok || t > best {
					best = t
					ok = true
				}
			}
		}
		return md.MD{LHS: []md.SimAttr{{Col: c, Metric: m, MaxDist: best}}, RHS: rhsCols, Schema: r.Schema()}, ok
	})
	searchSpan.SetAttr("completed", done)
	searchSpan.End()
	reg.Counter("mddisc.candidates.checked").Add(int64(done))
	sort.Slice(out, func(i, j int) bool { return out[i].LHS[0].Col < out[j].LHS[0].Col })
	reg.Counter("mddisc.mds.valid").Add(int64(len(out)))
	return Result{MDs: out, Outcome: run.Finish(err), Completed: done}
}

// RelativeCandidateKeys finds the minimal attribute sets X (within
// LHSCols, at equality thresholds) such that the MD X≈ → RHS⇌ meets the
// confidence requirement — the RCKs of [90] that remove redundant
// matching-rule semantics. Search is level-wise; supersets of found keys
// are pruned.
func RelativeCandidateKeys(r *relation.Relation, opts Options) []attrset.Set {
	opts = opts.withDefaults()
	cols := opts.LHSCols
	if cols == nil {
		rhs := map[int]bool{}
		for _, c := range opts.RHS {
			rhs[c] = true
		}
		for c := 0; c < r.Cols(); c++ {
			if !rhs[c] {
				cols = append(cols, c)
			}
		}
	}
	mkMD := func(x attrset.Set) md.MD {
		m := md.MD{RHS: opts.RHS, Schema: r.Schema()}
		x.Each(func(c int) {
			m.LHS = append(m.LHS, md.SimAttr{Col: c, Metric: metric.ForKind(r.Schema().Attr(c).Kind), MaxDist: 0})
		})
		return m
	}
	var keys []attrset.Set
	level := make([]attrset.Set, 0, len(cols))
	for _, c := range cols {
		level = append(level, attrset.Single(c))
	}
	for len(level) > 0 {
		var next []attrset.Set
		for _, x := range level {
			covered := false
			for _, k := range keys {
				if k.SubsetOf(x) {
					covered = true
					break
				}
			}
			if covered {
				continue
			}
			_, conf := mkMD(x).SupportConfidence(r)
			if conf >= opts.MinConfidence {
				keys = append(keys, x)
			} else {
				next = append(next, x)
			}
		}
		level = attrset.NextLevel(next)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
