// Package registry is the single enrollment point for every discoverer
// in the family tree: each algorithm registers a name, its dependency
// class, and a context-aware runner that maps engine-level results to the
// rendered lines the CLI and server emit. The server's endpoint table,
// the CLI's algo dispatch, and the differential/chaos/fuzz harnesses all
// iterate this table, so adding an algorithm here enrolls it everywhere
// at once — the completeness test in internal/engine proves no endpoint
// escapes the harnesses.
package registry

import (
	"context"
	"fmt"
	"strings"

	"deptree/internal/deps/dd"
	"deptree/internal/deps/fd"
	"deptree/internal/deps/ned"
	"deptree/internal/deps/od"
	"deptree/internal/discovery/cddisc"
	"deptree/internal/discovery/cfddisc"
	"deptree/internal/discovery/cords"
	"deptree/internal/discovery/dddisc"
	"deptree/internal/discovery/fastdc"
	"deptree/internal/discovery/fastfd"
	"deptree/internal/discovery/ffddisc"
	"deptree/internal/discovery/mddisc"
	"deptree/internal/discovery/mvddisc"
	"deptree/internal/discovery/nedisc"
	"deptree/internal/discovery/oddisc"
	"deptree/internal/discovery/pfddisc"
	"deptree/internal/discovery/sampling"
	"deptree/internal/discovery/sddisc"
	"deptree/internal/discovery/tane"
	"deptree/internal/engine"
	"deptree/internal/metric"
	"deptree/internal/obs"
	"deptree/internal/partition"
	"deptree/internal/relation"
)

// RunOptions carries the execution knobs every registered runner
// understands.
type RunOptions struct {
	// Workers is the engine worker count (<= 0 selects 1).
	Workers int
	// Budget bounds the run; exhausted budgets degrade to a Partial
	// output, never an error.
	Budget engine.Budget
	// MaxErr is the g3 budget for approximate FDs (tane only).
	MaxErr float64
	// SampleRows > 0 selects sample-then-verify mode on discoverers with
	// Sampling: candidates are mined on a deterministic SampleRows-row
	// sample and only those verified exactly on the full relation are
	// emitted. Discoverers without Sampling ignore the knobs; callers
	// (server, CLI) reject the combination up front with a typed error.
	SampleRows int
	// SampleSeed seeds the deterministic sample permutation.
	SampleSeed int64
	// Obs optionally receives the run's metrics; nil is a no-op.
	Obs *obs.Registry
}

// samplingOptions maps the run knobs to the sampling driver's options.
func samplingOptions(o RunOptions) sampling.Options {
	return sampling.Options{
		Rows: o.SampleRows, Seed: o.SampleSeed,
		Workers: o.Workers, Budget: o.Budget, Obs: o.Obs,
	}
}

// fdVerifier builds the exact-verification predicate sampled FD
// discovery applies to each candidate — the same validity criterion tane
// uses per lattice level: exact partition refinement, or g3 within the
// error budget. All verifications share one partition cache over the
// full relation, so each attribute set is hashed from row values at most
// once and multi-attribute partitions come from cached products; without
// the cache every verified FD would rebuild its partitions from scratch,
// which at a million rows costs more than full-mode discovery.
func fdVerifier(r *relation.Relation, maxErr float64) func(fd.FD) bool {
	cache := engine.NewPartitionCache(r, 0)
	return func(f fd.FD) bool {
		px := cache.Get(f.LHS)
		if maxErr > 0 {
			codes, _ := r.GroupCodes(f.RHS.Cols())
			return px.G3(codes) <= maxErr
		}
		return partition.Refines(px, cache.Get(f.LHS.Union(f.RHS)))
	}
}

// Output is one discovery run rendered as the CLI renders it: one
// dependency per line, plus the truncation state.
type Output struct {
	// Lines holds one rendered dependency per line, in the CLI's order.
	Lines []string
	// Outcome marks a budget/cancellation/panic-truncated run; Lines is
	// then a deterministic prefix of the full run's lines.
	engine.Outcome
}

// Text renders the output exactly as `deptool discover` writes it to
// stdout: one dependency per line, then the PARTIAL marker line if the
// run was truncated.
func (o Output) Text() string {
	var b strings.Builder
	for _, line := range o.Lines {
		b.WriteString(line)
		b.WriteByte('\n')
	}
	if o.Partial {
		fmt.Fprintf(&b, "PARTIAL: %s\n", o.Reason)
	}
	return b.String()
}

// Algo is one registered discoverer.
type Algo struct {
	// Name is the endpoint and CLI name (POST /v1/discover/{Name},
	// deptool discover -algo {Name}).
	Name string
	// Class is the dependency class of the family tree the algorithm
	// mines (FD, CFD, MD, ...).
	Class string
	// Doc is a one-line description for the README endpoint table.
	Doc string
	// Sampling marks discoverers that honor RunOptions.SampleRows with
	// the sample-then-verify driver. Call sites reject sample knobs on
	// discoverers without it.
	Sampling bool
	// Incremental marks discoverers with an append-aware revalidation
	// engine in internal/stream (deptool stream, POST /v1/stream/{algo}):
	// the last ruleset is held and each append batch re-decides only what
	// the delta could have changed, with output proven byte-identical to
	// a from-scratch run after every batch. A lockstep test in
	// internal/stream pins this flag to the engines that actually exist.
	Incremental bool
	// Run executes the discoverer over the relation under the options.
	// Lines are deterministic for any worker count, including under a
	// MaxTasks budget.
	Run func(ctx context.Context, r *relation.Relation, o RunOptions) Output
}

// render maps a discovery result slice to output lines via fmt.Sprint
// (every dependency type carries a String method).
func render[T fmt.Stringer](xs []T, outcome engine.Outcome) Output {
	out := Output{Outcome: outcome}
	for _, x := range xs {
		out.Lines = append(out.Lines, fmt.Sprint(x))
	}
	return out
}

// discoverer is one discovery run over a relation, full or sampled.
type discoverer[T any] func(ctx context.Context, r *relation.Relation) ([]T, engine.Outcome)

// sampleOr runs discover on the full relation or, when o.SampleRows is
// set, on a sample through sampling.Run, keeping only the candidates
// verify confirms on the full relation. The verifiers build their state
// lazily, so full mode pays nothing for the one it does not call.
func sampleOr[T any](ctx context.Context, r *relation.Relation, o RunOptions, discover discoverer[T], verify func(T) bool) ([]T, engine.Outcome) {
	if o.SampleRows <= 0 {
		return discover(ctx, r)
	}
	res := sampling.Run(ctx, r, samplingOptions(o), discover, verify)
	return res.Verified, res.Outcome
}

// lastCol returns the default RHS column for RHS-directed discoverers:
// the relation's last column, the conventional "measure" position of the
// fixtures and the documented servable default.
func lastCol(r *relation.Relation) int { return r.Cols() - 1 }

// algos is the registry, in the order the CLI documents the names: the
// FD, soft-FD, DC and OD discoverers first, then the rest of the family
// tree. Every entry runs on the engine (workers, budget, metrics).
var algos = []Algo{
	{
		Name: "tane", Class: "FD",
		Doc:      "TANE partition-based (approximate) FD discovery",
		Sampling: true, Incremental: true,
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			return render(sampleOr(ctx, r, o, func(ctx context.Context, s *relation.Relation) ([]fd.FD, engine.Outcome) {
				res := tane.DiscoverContext(ctx, s, tane.Options{MaxError: o.MaxErr, Workers: o.Workers, Budget: o.Budget, Obs: o.Obs})
				return res.FDs, res.Outcome
			}, fdVerifier(r, o.MaxErr)))
		},
	},
	{
		Name: "fastfd", Class: "FD",
		Doc:      "FastFD difference-set FD discovery",
		Sampling: true, Incremental: true,
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			return render(sampleOr(ctx, r, o, func(ctx context.Context, s *relation.Relation) ([]fd.FD, engine.Outcome) {
				res := fastfd.DiscoverContext(ctx, s, fastfd.Options{Workers: o.Workers, Budget: o.Budget, Obs: o.Obs})
				return res.FDs, res.Outcome
			}, fdVerifier(r, 0)))
		},
	},
	{
		Name: "cords", Class: "SFD",
		Doc: "CORDS soft-FD (correlation) discovery",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := cords.DiscoverContext(ctx, r, cords.Options{Workers: o.Workers, Budget: o.Budget, Obs: o.Obs})
			return render(res.SFDs, res.Outcome)
		},
	},
	{
		Name: "fastdc", Class: "DC",
		Doc: "FastDC denial-constraint discovery (2-predicate)",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := fastdc.DiscoverContext(ctx, r, fastdc.Options{MaxPredicates: 2, Workers: o.Workers, Budget: o.Budget, Obs: o.Obs})
			return render(res.DCs, res.Outcome)
		},
	},
	{
		Name: "od", Class: "OD",
		Doc:      "Set-based order dependency discovery (minimal ODs)",
		Sampling: true, Incremental: true,
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			// A sampled run verifies with one set-based verifier over the
			// full relation: per-column rank arrays are built once, each
			// candidate check is a linear scan. Minimality is derived over
			// the verified set, since verification can thin the transitive
			// structure.
			ods, outcome := sampleOr(ctx, r, o, func(ctx context.Context, s *relation.Relation) ([]od.OD, engine.Outcome) {
				res := oddisc.DiscoverContext(ctx, s, oddisc.Options{Workers: o.Workers, Budget: o.Budget, Obs: o.Obs})
				return res.ODs, res.Outcome
			}, oddisc.NewVerifier(r).Holds)
			return render(oddisc.Minimal(ods), outcome)
		},
	},
	{
		Name: "lexod", Class: "OD",
		Doc:      "Lexicographic order dependency discovery",
		Sampling: true, Incremental: true,
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			return render(sampleOr(ctx, r, o, func(ctx context.Context, s *relation.Relation) ([]od.LexOD, engine.Outcome) {
				res := oddisc.DiscoverLexContext(ctx, s, oddisc.LexOptions{Workers: o.Workers, Budget: o.Budget, Obs: o.Obs})
				return res.ODs, res.Outcome
			}, func(c od.LexOD) bool { return c.Holds(r) }))
		},
	},
	{
		Name: "cfd", Class: "CFD",
		Doc: "CFDMiner-style minimal constant CFD mining",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := cfddisc.DiscoverContext(ctx, r, cfddisc.Options{Workers: o.Workers, Budget: o.Budget, Obs: o.Obs})
			return render(res.CFDs, res.Outcome)
		},
	},
	{
		Name: "pfd", Class: "pFD",
		Doc: "Probabilistic FD discovery (majority-probability counting)",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := pfddisc.DiscoverContext(ctx, r, pfddisc.Options{Workers: o.Workers, Budget: o.Budget, Obs: o.Obs})
			return render(res.PFDs, res.Outcome)
		},
	},
	{
		Name: "ffd", Class: "FFD",
		Doc: "Fuzzy FD discovery over resemblance relations",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := ffddisc.DiscoverContext(ctx, r, ffddisc.Options{Workers: o.Workers, Budget: o.Budget, Obs: o.Obs})
			return render(res.FFDs, res.Outcome)
		},
	},
	{
		Name: "md", Class: "MD",
		Doc: "Matching dependency discovery (RHS: last column)",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := mddisc.DiscoverContext(ctx, r, mddisc.Options{Workers: o.Workers, Budget: o.Budget, Obs: o.Obs})
			return render(res.MDs, res.Outcome)
		},
	},
	{
		Name: "dd", Class: "DD",
		Doc: "Differential dependency discovery (RHS: last column, equality)",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			if r.Cols() == 0 {
				return Output{}
			}
			c := lastCol(r)
			res := dddisc.DiscoverContext(ctx, r, dddisc.Options{
				RHS:     dd.DiffFunc{Col: c, Metric: metric.ForKind(r.Schema().Attr(c).Kind), Op: dd.OpLe, Threshold: 0},
				Workers: o.Workers, Budget: o.Budget, Obs: o.Obs,
			})
			return render(res.DDs, res.Outcome)
		},
	},
	{
		Name: "ned", Class: "NED",
		Doc: "Neighborhood dependency discovery (RHS: last column)",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			if r.Cols() == 0 {
				return Output{}
			}
			c := lastCol(r)
			res := nedisc.DiscoverContext(ctx, r, nedisc.Options{
				RHS:     ned.Predicate{{Col: c, Metric: metric.ForKind(r.Schema().Attr(c).Kind), Threshold: 0}},
				Workers: o.Workers, Budget: o.Budget, Obs: o.Obs,
			})
			return render(res.NEDs, res.Outcome)
		},
	},
	{
		Name: "cd", Class: "CD",
		Doc: "Comparable dependency discovery (pay-as-you-go session)",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := cddisc.DiscoverContext(ctx, r, cddisc.Options{Workers: o.Workers, Budget: o.Budget, Obs: o.Obs})
			return render(res.CDs, res.Outcome)
		},
	},
	{
		Name: "mvd", Class: "MVD",
		Doc: "Multivalued dependency discovery (top-down search)",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := mvddisc.DiscoverContext(ctx, r, mvddisc.Options{Workers: o.Workers, Budget: o.Budget, Obs: o.Obs})
			return render(res.MVDs, res.Outcome)
		},
	},
	{
		Name: "sd", Class: "SD",
		Doc: "Sequential dependency discovery (fitted gap intervals)",
		Run: func(ctx context.Context, r *relation.Relation, o RunOptions) Output {
			res := sddisc.DiscoverContext(ctx, r, sddisc.Options{Workers: o.Workers, Budget: o.Budget, Obs: o.Obs})
			return render(res.SDs, res.Outcome)
		},
	},
}

// All returns every registered discoverer in documentation order.
func All() []Algo { return algos }

// Names returns the registered names in documentation order.
func Names() []string {
	out := make([]string, len(algos))
	for i, a := range algos {
		out[i] = a.Name
	}
	return out
}

// Lookup resolves a name to its Algo.
func Lookup(name string) (Algo, bool) {
	for _, a := range algos {
		if a.Name == name {
			return a, true
		}
	}
	return Algo{}, false
}
