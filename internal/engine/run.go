package engine

import (
	"context"

	"deptree/internal/obs"
)

// Outcome is the truncation state every budgeted run reports. Discovery,
// detection and repair results embed it, so res.Partial and res.Reason
// read the same everywhere.
type Outcome struct {
	// Partial marks a run truncated by budget, cancellation or panic;
	// the result then covers a deterministic prefix of the full run.
	Partial bool
	// Reason is the stable stop token ("deadline", "max-tasks",
	// "cancelled", "panic: ..."); empty when complete.
	Reason string
}

// Stopped returns the Outcome of a run that err stopped: the zero
// Outcome for nil, otherwise Partial with Reason(err). Run.Finish is the
// same for runs with a span.
func Stopped(err error) Outcome {
	if err == nil {
		return Outcome{}
	}
	return Outcome{Partial: true, Reason: Reason(err)}
}

// Run is one budgeted run: the worker pool its fan-outs use and its
// obs.KindRun span, which it embeds so callers set attributes and open
// phases on the run directly. Start opens both, Close tears both down,
// and Finish turns the stop error into the run's Outcome.
type Run struct {
	*obs.Span
	Pool *Pool
}

// Start opens a run named name: a pool of max(workers, 1) workers under
// budget b whose metrics go to reg, and a root span of kind obs.KindRun.
// Callers defer Close.
func Start(ctx context.Context, name string, workers int, b Budget, reg *obs.Registry) *Run {
	return &Run{
		Pool: NewObserved(ctx, max(workers, 1), 0, b, reg),
		Span: reg.StartSpan(obs.KindRun, name),
	}
}

// Finish returns the Outcome for the stop error err (nil when the run
// completed) and records a partial run's reason as the span's "stop"
// attribute.
func (r *Run) Finish(err error) Outcome {
	out := Stopped(err)
	if out.Partial {
		r.SetAttr("stop", out.Reason)
	}
	return out
}

// Close ends the run span and then closes the pool.
func (r *Run) Close() {
	r.Span.End()
	r.Pool.Close()
}

// Keep runs fn over [0, n) in budgeted stripes as MapBudget does and
// returns, in index order, the values fn kept (ok) within the completed
// prefix, the length of that prefix, and the error that stopped the run.
func Keep[T any](p *Pool, n, batch int, fn func(i int) (T, bool)) ([]T, int, error) {
	type kept struct {
		v  T
		ok bool
	}
	all, done, err := MapBudget(p, n, batch, func(i int) kept {
		v, ok := fn(i)
		return kept{v, ok}
	})
	var out []T
	for _, k := range all {
		if k.ok {
			out = append(out, k.v)
		}
	}
	return out, done, err
}

// Pairs evaluates f over every row pair (i, j) with i < j < n, in that
// order, for the O(n²) precomputes of the pairwise discoverers. It
// allocates nothing when the pool has already stopped and polls the pool
// once per row i, so a cancelled or expired run stops early; it then
// returns the stop error and no values.
func Pairs[T any](p *Pool, n int, f func(i, j int) T) ([]T, error) {
	if err := p.Err(); err != nil {
		return nil, err
	}
	out := make([]T, 0, n*(n-1)/2)
	for i := 0; i < n; i++ {
		if err := p.Err(); err != nil {
			return nil, err
		}
		for j := i + 1; j < n; j++ {
			out = append(out, f(i, j))
		}
	}
	return out, nil
}
