// Package sampling implements the sample-then-verify discovery driver:
// discover candidates on a deterministic seeded row sample, then confirm
// every surviving candidate against the full relation before emitting
// it. It is the standard scale move for million-row discovery (after
// De & Kambhampati's probabilistic-FD mining): the expensive search runs
// on k ≪ n rows, and only the (few) candidates it proposes pay the
// exact full-relation verification — the counting G3/partition
// machinery for FDs, the set-based order-compatibility scan for ODs.
//
// The guarantee is one-sided by construction: sampling may MISS
// dependencies (a dependency invisible on the sample is never proposed),
// but it never EMITS an unverified one — every returned candidate passed
// its exact check on the full relation. For dependency classes defined
// by ∀-pair conditions (FD, OD), validity on the full relation implies
// validity on any row subset, so the verified output is always a subset
// of full-relation discovery's output, and for fixed candidate spaces
// (pairwise ODs) it is exactly equal.
//
// Determinism: the sample is a pure function of (relation, Rows, Seed) —
// an injected *rand.Rand permutation, the convention of internal/gen —
// and verification fans out through engine.MapBudget with the engine's
// fixed-stripe batching, so a budget-truncated verification still yields
// a deterministic candidate prefix for every worker count.
package sampling

import (
	"context"
	"math/rand"
	"sort"

	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// Options configures one sample-then-verify run.
type Options struct {
	// Rows is the sample size. <= 0 or >= the relation's rows means no
	// sampling: discovery runs on the full relation and verification is
	// skipped (the candidates are already exact).
	Rows int
	// Seed seeds the sample's deterministic permutation. The same
	// (relation, Rows, Seed) always selects the same rows.
	Seed int64
	// Workers fans the verification checks out across the engine pool.
	Workers int
	// Budget bounds the verification fan-out (the discovery phase runs
	// under the discoverer's own budget, passed by the caller's closure).
	// Its deadline counts from the start of Run, so it bounds sample
	// discovery and verification together. An exhausted budget truncates
	// verification to a deterministic candidate prefix and marks the
	// result Partial.
	Budget engine.Budget
	// Obs receives the sampling.candidates / sampling.verified /
	// sampling.refuted counters and the run span. Nil is a no-op.
	Obs *obs.Registry
}

// Result is a sample-then-verify outcome for candidate type T.
type Result[T any] struct {
	// Verified holds the candidates that passed exact verification on
	// the full relation, in discovery order.
	Verified []T
	// Candidates is the number of candidates the sample proposed.
	Candidates int
	// Refuted is the number of candidates the full relation rejected —
	// sampling artifacts that held on the sample only.
	Refuted int
	// Sampled reports whether a strict sample was used (false when Rows
	// covered the whole relation and discovery was exact).
	Sampled bool
	// Outcome marks a truncated run: the sample discovery stopped early
	// (its reason wins), or the verification budget ran out. Verified
	// then covers a deterministic prefix of the candidates.
	engine.Outcome
}

// Sample returns the deterministic seeded row sample: rows rows chosen
// by a seeded permutation, kept in ascending row order so order-sensitive
// dependency classes (ODs, SDs) see rows in their original sequence.
// When rows <= 0 or rows >= the relation's size, the relation itself is
// returned (callers compare pointers to detect the trivial case).
func Sample(r *relation.Relation, rows int, seed int64) *relation.Relation {
	n := r.Rows()
	if rows <= 0 || rows >= n {
		return r
	}
	rng := rand.New(rand.NewSource(seed))
	picked := rng.Perm(n)[:rows]
	sort.Ints(picked)
	keep := make([]bool, n)
	for _, i := range picked {
		keep[i] = true
	}
	return r.Select(func(row int) bool { return keep[row] })
}

// Run executes one sample-then-verify pass: discover proposes candidates
// on the sample (returning its own Outcome), verify decides one candidate
// exactly against the full relation. Only verified candidates are
// returned; refuted ones are counted and dropped.
func Run[T any](ctx context.Context, full *relation.Relation, opts Options,
	discover func(ctx context.Context, sample *relation.Relation) ([]T, engine.Outcome),
	verify func(cand T) bool) Result[T] {

	reg := opts.Obs
	sample := Sample(full, opts.Rows, opts.Seed)

	run := engine.Start(ctx, "sampling", opts.Workers, opts.Budget, reg)
	defer run.Close()
	run.SetAttr("rows", full.Rows())
	run.SetAttr("sample_rows", sample.Rows())

	cands, out := discover(ctx, sample)
	reg.Counter("sampling.candidates").Add(int64(len(cands)))

	if sample == full {
		// Trivial sample: discovery was exact, nothing to verify.
		reg.Counter("sampling.verified").Add(int64(len(cands)))
		return Result[T]{Verified: cands, Candidates: len(cands), Outcome: out}
	}

	verifySpan := run.Child(obs.KindPhase, "verify")
	verified, done, err := engine.Keep(run.Pool, len(cands), 0, func(i int) (T, bool) { return cands[i], verify(cands[i]) })
	verifySpan.SetAttr("completed", done)
	verifySpan.End()

	res := Result[T]{Verified: verified, Candidates: len(cands), Refuted: done - len(verified), Sampled: true, Outcome: out}
	reg.Counter("sampling.verified").Add(int64(len(res.Verified)))
	reg.Counter("sampling.refuted").Add(int64(res.Refuted))
	if !out.Partial {
		// A discovery stop wins. A verification stop is reported in the
		// Outcome only; the sampling span records no stop attribute.
		res.Outcome = engine.Stopped(err)
	}
	return res
}
