package engine

import (
	"context"
	"fmt"
	"testing"

	"deptree/internal/obs"
)

func TestKeepReturnsKeptValuesOfCompletedPrefix(t *testing.T) {
	const n, batch = 100, 8
	for _, workers := range []int{1, 4} {
		run := Start(context.Background(), "keep", workers, Budget{MaxTasks: 50}, nil)
		kept, done, err := Keep(run.Pool, n, batch, func(i int) (int, bool) { return i, i%3 == 0 })
		run.Close()
		if done != 48 || err != ErrMaxTasks {
			t.Fatalf("workers=%d: done=%d err=%v, want 48 and ErrMaxTasks", workers, done, err)
		}
		if got, want := fmt.Sprint(kept), "[0 3 6 9 12 15 18 21 24 27 30 33 36 39 42 45]"; got != want {
			t.Fatalf("workers=%d: kept %s, want %s", workers, got, want)
		}
	}
}

func TestFinishRecordsStopOnlyForPartialRuns(t *testing.T) {
	reg := obs.New()
	for _, err := range []error{nil, ErrMaxTasks} {
		run := Start(context.Background(), fmt.Sprint(err), 1, Budget{}, reg)
		out := run.Finish(err)
		run.Close()
		if out != Stopped(err) {
			t.Fatalf("Finish(%v) = %+v, want %+v", err, out, Stopped(err))
		}
	}
	evs := reg.Events()
	if len(evs) != 2 {
		t.Fatalf("%d run spans, want 2", len(evs))
	}
	if _, ok := evs[0].Attrs["stop"]; ok {
		t.Fatalf("complete run recorded stop: %v", evs[0].Attrs)
	}
	if evs[1].Kind != obs.KindRun || evs[1].Attrs["stop"] != "max-tasks" {
		t.Fatalf("partial run span = %+v, want kind run with stop=max-tasks", evs[1])
	}
}

func TestPairsStopsBeforeAllocating(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	run := Start(ctx, "pairs", 1, Budget{}, nil)
	defer run.Close()
	got, err := Pairs(run.Pool, 4, func(i, j int) [2]int { return [2]int{i, j} })
	if err != nil || fmt.Sprint(got) != "[[0 1] [0 2] [0 3] [1 2] [1 3] [2 3]]" {
		t.Fatalf("live run: %v %v, want the six pairs in (i, j) order", got, err)
	}
	cancel()
	calls := 0
	stopped, err := Pairs(run.Pool, 3000, func(i, j int) bool { calls++; return true })
	if err != context.Canceled || stopped != nil || calls != 0 {
		t.Fatalf("cancelled run: err=%v len=%d calls=%d, want context.Canceled, nil, 0", err, len(stopped), calls)
	}
}
