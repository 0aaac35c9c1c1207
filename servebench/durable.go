package main

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"deptree/internal/fsx"
	"deptree/internal/jobs"
	"deptree/internal/server"
)

// The durable-writes plan. Sessions and the job history only grow (the
// API can close neither), so an unbounded closed loop would make state,
// append cost and memory depend on how fast the server is. The timed
// phase therefore runs in rounds: each boots a server over a fresh copy
// of the pre-written log (the boot is timed as set-up), and its two
// closed-loop clients send a fixed round of operations as fast as the
// replies come back. Every round starts from the same state and ends
// in the same state.
const (
	batchRows    = 500 // rows per appended batch
	preBatches   = 20  // batches per session in the pre-written log
	preJobs      = 20  // jobs in the pre-written log
	roundBatches = 40  // batches per session in a round
	roundJobs    = 40  // jobs in a round
	// driftAt is the batch per session (1-based) that plants rule-breaking
	// drift. It lies in the pre-written log, so every boot's replay
	// re-runs the demotions it causes, and the rounds' appends are all
	// alike: a drift batch in each round would put a handful of
	// much slower appends at the edge of every window's tail.
	driftAt = preBatches / 2
)

// nosyncFS is the filesystem of the durable-writes logs: real files in
// the run's directory, with file and directory syncs accepted but not
// performed, as on tmpfs. The WALs still issue every sync their flush
// policy calls for (the job WAL counts them), but the host disk's flush
// latency, which follows other tenants' I/O rather than the program,
// stays out of the timings.
type nosyncFS struct{ fsx.FS }

func (f nosyncFS) OpenFile(name string, flag int, perm fs.FileMode) (fsx.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return nosyncFile{file}, nil
}

func (nosyncFS) SyncDir(string) error { return nil }

type nosyncFile struct{ fsx.File }

func (nosyncFile) Sync() error { return nil }

// useNosyncFS makes nosyncFS the filesystem every WAL opened from now on
// uses (the server opens its stream WAL on fsx.OS), and returns the
// function that puts the real one back.
func useNosyncFS() (restore func()) {
	prev := fsx.OS
	fsx.OS = nosyncFS{prev}
	return func() { fsx.OS = prev }
}

// durable is the durable-writes workload: one tane and one od stream
// session fed batchRows-row batches, and async discover jobs.
type durable struct {
	plans   [2]streamPlan
	appends [2][]op // per session, one op per batch (bodies name the session)
	jobs    []op
}

func newDurable(seed int64) (*durable, error) {
	rng := rand.New(rand.NewSource(seed))
	d := &durable{}
	for i, algo := range []string{"tane", "od"} {
		d.plans[i] = newStreamPlan(algo, rng.Int63(), preBatches+roundBatches, driftAt)
	}
	var err error
	d.jobs, err = jobOps(rng.Int63(), preJobs+roundJobs)
	return d, err
}

// appendOps prepares one append request per batch of session s. The
// last batch's check also compares the session's ruleset with a
// from-scratch discovery over every row the session then holds.
func (d *durable) appendOps(s int) ([]op, error) {
	p := &d.plans[s]
	final, err := p.expectLines()
	if err != nil {
		return nil, err
	}
	rows := p.baseRows
	ops := make([]op, len(p.batches))
	for i, csv := range p.batches {
		rows += p.batchRows[i]
		seq, total, last := i+2, rows, i == len(p.batches)-1 // the creating request was batch 1
		ops[i] = op{
			kind: "stream.append", algo: p.algo,
			path: "/v1/stream/" + p.algo,
			body: mustJSON(server.StreamRequest{CSV: csv, Session: p.session}),
			check: func(b []byte) error {
				var got streamReply
				if err := decodeReply(b, &got); err != nil {
					return err
				}
				if got.Partial {
					return fmt.Errorf("partial reply (%s)", got.Reason)
				}
				if got.Seq != seq || got.TotalRows != total {
					return fmt.Errorf("batch landed as seq %d with %d rows, want seq %d with %d", got.Seq, got.TotalRows, seq, total)
				}
				if last {
					if err := checkLines(got.Results, final); err != nil {
						return fmt.Errorf("session %s after %d rows: %w", got.Session, total, err)
					}
				}
				return nil
			},
		}
	}
	return ops, nil
}

// prewrite boots a server over the empty dir and writes the log every
// round replays: both sessions created with preBatches batches each,
// and preJobs jobs run to completion.
func (d *durable) prewrite(dir string) error {
	in, err := boot(dir, nil)
	if err != nil {
		return err
	}
	err = d.prewriteOps(in)
	if serr := in.stop(); err == nil {
		err = serr
	}
	return err
}

func (d *durable) prewriteOps(in *instance) error {
	for s := range d.plans {
		p := &d.plans[s]
		status, reply, err := in.do(http.MethodPost, "/v1/stream/"+p.algo, mustJSON(server.StreamRequest{CSV: p.base}))
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("create %s session: status %d, %v: %.200s", p.algo, status, err, reply)
		}
		var got streamReply
		if err := decodeReply(reply, &got); err != nil {
			return err
		}
		p.session = got.Session
		if d.appends[s], err = d.appendOps(s); err != nil {
			return err
		}
	}
	var recs []record
	for i := 0; i < preBatches; i++ {
		for s := range d.plans {
			recs = append(recs, send(in, &d.appends[s][i]))
		}
	}
	for j := 0; j < preJobs; j++ {
		recs = append(recs, sendJob(in, &d.jobs[j]))
	}
	if n := checkAll(recs); n > 0 {
		return fmt.Errorf("pre-written log: %d of %d operations failed, first: %v", n, len(recs), firstFailure(recs))
	}
	return nil
}

// sendJob submits a job and long-polls it to a terminal state; the
// latency is the job's turnaround.
func sendJob(in *instance, o *op) record {
	t := time.Now()
	rec := record{op: o, start: t}
	status, reply, err := in.do(http.MethodPost, o.path, o.body)
	if err == nil && status != http.StatusAccepted && status != http.StatusOK {
		err = fmt.Errorf("job submit: status %d: %.200s", status, reply)
	}
	var v jobs.View
	if err == nil {
		err = json.Unmarshal(reply, &v)
	}
	if err == nil {
		status, reply, err = in.do(http.MethodGet, "/v1/jobs/"+v.ID+"?wait=30s", nil)
	}
	rec.latency, rec.status, rec.reply, rec.err = time.Since(t), status, reply, err
	return rec
}

// round runs one round's operations: the stream client appends the
// round's batches to the two sessions in turn while the job client
// submits the round's jobs.
func (d *durable) round(in *instance) []record {
	var streamRecs, jobRecs []record
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := preBatches; i < preBatches+roundBatches; i++ {
			for s := range d.appends {
				streamRecs = append(streamRecs, send(in, &d.appends[s][i]))
			}
		}
	}()
	go func() {
		defer wg.Done()
		for j := preJobs; j < preJobs+roundJobs; j++ {
			jobRecs = append(jobRecs, sendJob(in, &d.jobs[j]))
		}
	}()
	wg.Wait()
	return append(streamRecs, jobRecs...)
}

// phase is the durable timed phase: rounds until the deadline, each
// over a fresh copy of the pre-written log in pre. Only the rounds'
// serving time counts toward throughput and allocation.
func (d *durable) phase(pre, tmp string, seconds int, wrap func(http.Handler) http.Handler) (phase, error) {
	var p phase
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		dir := filepath.Join(tmp, fmt.Sprintf("round%d", r))
		if err := copyDir(pre, dir); err != nil {
			return p, err
		}
		// Every boot starts from a collected heap, so the previous
		// round's garbage does not time its replay.
		runtime.GC()
		in, err := boot(dir, wrap)
		if err != nil {
			return p, err
		}
		p.setups = append(p.setups, in.setup.Seconds())
		_, syncs := in.store.Stats()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		recs := d.round(in)
		for i := range recs {
			recs[i].at = p.serving + recs[i].start.Sub(start)
		}
		p.recs = append(p.recs, recs...)
		p.serving += time.Since(start)
		runtime.ReadMemStats(&m1)
		p.alloc += m1.TotalAlloc - m0.TotalAlloc
		p.stats.add(serverStats(in, syncs))
		if err := in.stop(); err != nil {
			return p, err
		}
		os.RemoveAll(dir)
	}
	return p, nil
}
