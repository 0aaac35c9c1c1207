package sampling

import (
	"context"
	"reflect"
	"testing"

	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

func rowsOf(r *relation.Relation, col int) []string {
	out := make([]string, r.Rows())
	for i := range out {
		out[i] = r.Value(i, col).String()
	}
	return out
}

func TestSampleDeterministicAndOrdered(t *testing.T) {
	r := gen.Categorical(200, []int{50, 50}, 7)
	a := Sample(r, 40, 3)
	b := Sample(r, 40, 3)
	if a == r || b == r {
		t.Fatal("strict sample returned the full relation")
	}
	if a.Rows() != 40 || b.Rows() != 40 {
		t.Fatalf("sample sizes %d/%d, want 40", a.Rows(), b.Rows())
	}
	if !reflect.DeepEqual(rowsOf(a, 0), rowsOf(b, 0)) {
		t.Fatal("same (rows, seed) produced different samples")
	}
	c := Sample(r, 40, 4)
	if reflect.DeepEqual(rowsOf(a, 0), rowsOf(c, 0)) {
		t.Fatal("different seeds produced identical samples (vanishingly unlikely)")
	}
	if a.Schema() != r.Schema() {
		t.Fatal("sample does not share the relation's schema")
	}
}

func TestSampleTrivialCases(t *testing.T) {
	r := gen.Table7()
	n := r.Rows()
	for _, rows := range []int{0, -1, n, n + 5} {
		if got := Sample(r, rows, 1); got != r {
			t.Fatalf("Sample(rows=%d) did not return the relation itself", rows)
		}
	}
}

func TestRunTrivialSampleSkipsVerification(t *testing.T) {
	r := gen.Table7()
	reg := obs.New()
	verifyCalls := 0
	res := Run(context.Background(), r, Options{Rows: 0, Obs: reg},
		func(ctx context.Context, s *relation.Relation) ([]int, engine.Outcome) {
			if s != r {
				t.Fatal("trivial sample is not the relation itself")
			}
			return []int{1, 2, 3}, engine.Outcome{}
		},
		func(int) bool { verifyCalls++; return false })
	if verifyCalls != 0 {
		t.Fatalf("verification ran %d times on a trivial sample", verifyCalls)
	}
	if res.Sampled || res.Partial || len(res.Verified) != 3 || res.Candidates != 3 || res.Refuted != 0 {
		t.Fatalf("unexpected trivial result %+v", res)
	}
	if got := reg.Counter("sampling.verified").Value(); got != 3 {
		t.Fatalf("sampling.verified = %d, want 3", got)
	}
}

func TestRunPartitionsVerifiedAndRefuted(t *testing.T) {
	r := gen.Categorical(100, []int{10}, 1)
	reg := obs.New()
	res := Run(context.Background(), r, Options{Rows: 10, Seed: 2, Workers: 3, Obs: reg},
		func(ctx context.Context, s *relation.Relation) ([]int, engine.Outcome) {
			if s.Rows() != 10 {
				t.Fatalf("sample has %d rows, want 10", s.Rows())
			}
			return []int{0, 1, 2, 3, 4, 5}, engine.Outcome{}
		},
		func(c int) bool { return c%2 == 0 })
	if !res.Sampled || res.Partial {
		t.Fatalf("unexpected result state %+v", res)
	}
	if !reflect.DeepEqual(res.Verified, []int{0, 2, 4}) || res.Refuted != 3 || res.Candidates != 6 {
		t.Fatalf("unexpected partition %+v", res)
	}
	for name, want := range map[string]int64{
		"sampling.candidates": 6, "sampling.verified": 3, "sampling.refuted": 3,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
}

func TestRunBudgetTruncatesVerificationDeterministically(t *testing.T) {
	r := gen.Categorical(100, []int{10}, 1)
	cands := make([]int, 50)
	for i := range cands {
		cands[i] = i
	}
	discover := func(ctx context.Context, s *relation.Relation) ([]int, engine.Outcome) {
		return cands, engine.Outcome{}
	}
	verify := func(c int) bool { return c%3 != 0 }
	var first []int
	for _, workers := range []int{1, 2, 5} {
		res := Run(context.Background(), r,
			Options{Rows: 10, Seed: 1, Workers: workers, Budget: engine.Budget{MaxTasks: 20}},
			discover, verify)
		if !res.Partial || res.Reason != "max-tasks" {
			t.Fatalf("workers=%d: want partial max-tasks, got %+v", workers, res)
		}
		if len(res.Verified)+res.Refuted > 20 {
			t.Fatalf("workers=%d: budget exceeded: %d decided", workers, len(res.Verified)+res.Refuted)
		}
		if first == nil {
			first = res.Verified
		} else if !reflect.DeepEqual(first, res.Verified) {
			t.Fatalf("workers=%d: verified prefix diverged: %v vs %v", workers, res.Verified, first)
		}
	}
}

func TestRunPropagatesDiscoveryPartial(t *testing.T) {
	r := gen.Categorical(50, []int{5}, 1)
	res := Run(context.Background(), r, Options{Rows: 10, Seed: 1},
		func(ctx context.Context, s *relation.Relation) ([]int, engine.Outcome) {
			return []int{1}, engine.Outcome{Partial: true, Reason: "deadline"}
		},
		func(int) bool { return true })
	if !res.Partial || res.Reason != "deadline" {
		t.Fatalf("discovery partial not propagated: %+v", res)
	}
}

func TestRunCancelledContext(t *testing.T) {
	r := gen.Categorical(50, []int{5}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := Run(ctx, r, Options{Rows: 10, Seed: 1},
		func(ctx context.Context, s *relation.Relation) ([]int, engine.Outcome) {
			return []int{1, 2}, engine.Outcome{}
		},
		func(int) bool { return true })
	if !res.Partial {
		t.Fatalf("cancelled run not partial: %+v", res)
	}
	if res.Reason != "cancelled" {
		t.Fatalf("reason = %q, want cancelled", res.Reason)
	}
}

func TestSampleRowOrderPreserved(t *testing.T) {
	// Build a relation whose single column is the row index; the sample's
	// values must be strictly increasing.
	attrs := []relation.Attribute{{Name: "i", Kind: relation.KindInt}}
	r := relation.New("seq", relation.NewSchema(attrs...))
	for i := 0; i < 300; i++ {
		if err := r.Append([]relation.Value{relation.Int(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s := Sample(r, 50, 9)
	prev := int64(-1)
	for i := 0; i < s.Rows(); i++ {
		v := s.Value(i, 0).Num()
		if int64(v) <= prev {
			t.Fatalf("sample rows out of original order at %d: %v after %d", i, v, prev)
		}
		prev = int64(v)
	}
	if s.Rows() != 50 {
		t.Fatalf("sample rows = %d, want 50", s.Rows())
	}
}
