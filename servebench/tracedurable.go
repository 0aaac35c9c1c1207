package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"time"

	"deptree/internal/engine"
	"deptree/internal/jobs"
	"deptree/internal/obs"
	"deptree/internal/relation"
	"deptree/internal/server"
	"deptree/internal/stream"
)

// walGrowth is the stream WAL's growth over the replayed appends and
// the CSV bytes those batches carried.
type walGrowth struct {
	logBytes, csvBytes int64
}

func tuples(r *relation.Relation) [][]relation.Value {
	rows := make([][]relation.Value, r.Rows())
	for i := range rows {
		rows[i] = r.Tuple(i)
	}
	return rows
}

func fileSize(path string) int64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return fi.Size()
}

// replayStreams replays both sessions serially from their base through
// every batch the run applied, in the run's order, against a fresh
// stream WAL that syncs every record.
func (t *tracer) replayStreams(d *durable, dir string) (walGrowth, error) {
	var g walGrowth
	path := filepath.Join(dir, "stream.wal")
	w, err := stream.OpenWAL(path)
	if err != nil {
		return g, err
	}
	defer w.Close()
	if err := w.Replay(func(stream.WALRecord) error { return nil }); err != nil {
		return g, err
	}
	ctx := context.Background()
	var sessions [2]*stream.Session
	var kinds [2][]relation.Kind
	for s := range d.plans {
		p := &d.plans[s]
		body := mustJSON(server.StreamRequest{CSV: p.base})
		req, root := t.request("stream.create")
		var sreq server.StreamRequest
		t.leaf(req, root, "server.decode", func() { err = decodeStrict(body, &sreq) })
		if err != nil {
			return g, err
		}
		var rel *relation.Relation
		t.leaf(req, root, "relation.ingest", func() { rel, err = parse(sreq.CSV) })
		t.countIngest(len(sreq.CSV))
		if err != nil {
			return g, err
		}
		sess, err := stream.NewSession(p.algo, rel.Schema(), stream.Options{Workers: runParams().Workers, Obs: obs.New()})
		if err != nil {
			return g, err
		}
		rows := tuples(rel)
		var res stream.BatchResult
		t.leaf(req, root, "stream.append", func() { res, err = sess.AppendBatch(ctx, rows) })
		if err != nil {
			return g, err
		}
		t.leaf(req, root, "wal.append", func() {
			if err = w.AppendCreate(p.session, p.algo, rel.Schema()); err == nil {
				err = w.AppendBatch(p.session, res.Seq, rows)
			}
		})
		if err != nil {
			return g, err
		}
		var buf bytes.Buffer
		t.leaf(req, root, "server.render", func() { render(&buf, streamReplyOf(p.session, p.algo, res)) })
		t.close(root)
		sessions[s] = sess
		for i := 0; i < rel.Cols(); i++ {
			kinds[s] = append(kinds[s], rel.Schema().Attr(i).Kind)
		}
	}
	for i := 0; i < preBatches+roundBatches; i++ {
		for s := range d.appends {
			if err := t.replayAppend(ctx, &d.appends[s][i], sessions[s], kinds[s], w, path, &g); err != nil {
				return g, err
			}
		}
	}
	return g, nil
}

// replayAppend replays one append request: decode, parse with the
// session's kinds, revalidate, log with a sync, render.
func (t *tracer) replayAppend(ctx context.Context, o *op, sess *stream.Session, kinds []relation.Kind,
	w *stream.WAL, path string, g *walGrowth) error {
	req, root := t.request(o.kind)
	defer t.close(root)
	var sreq server.StreamRequest
	var err error
	t.leaf(req, root, "server.decode", func() { err = decodeStrict(o.body, &sreq) })
	if err != nil {
		return err
	}
	var rows [][]relation.Value
	t.leaf(req, root, "relation.ingest", func() {
		var b *relation.Relation
		b, err = relation.ReadCSVLimits("batch", strings.NewReader(sreq.CSV), kinds, relation.Limits{MaxBytes: 16 << 20})
		if err == nil {
			rows = tuples(b)
		}
	})
	if err != nil {
		return err
	}
	t.countIngest(len(sreq.CSV))
	sess.SetRun(runParams().Workers, engine.Budget{Timeout: 30 * time.Second})
	var res stream.BatchResult
	t.leaf(req, root, "stream.append", func() { res, err = sess.AppendBatch(ctx, rows) })
	if err != nil {
		return err
	}
	before := fileSize(path)
	t.leaf(req, root, "wal.append", func() { err = w.AppendBatch(sreq.Session, res.Seq, rows) })
	if err != nil {
		return err
	}
	g.logBytes += fileSize(path) - before
	g.csvBytes += int64(len(sreq.CSV))
	var buf bytes.Buffer
	t.leaf(req, root, "server.render", func() { render(&buf, streamReplyOf(sreq.Session, o.algo, res)) })
	return o.check(buf.Bytes())
}

func streamReplyOf(session, algo string, res stream.BatchResult) streamReply {
	return streamReply{
		Session: session, Algo: algo, Seq: res.Seq, Rows: res.Rows, TotalRows: res.TotalRows,
		Fingerprint: res.Fingerprint, Count: len(res.Lines), Results: nonNil(res.Lines),
		Added: nonNil(res.Added), Removed: nonNil(res.Removed), Partial: res.Partial, Reason: res.Reason,
	}
}

// tracedStore times the job manager's log appends and syncs. The
// background group-commit flusher syncs the WALStore directly, unseen.
type tracedStore struct {
	*jobs.WALStore
	t *tracer
}

func (s tracedStore) Append(rec jobs.Record) error {
	var err error
	s.t.leafCur("wal.jobs_append", func() { err = s.WALStore.Append(rec) })
	return err
}

func (s tracedStore) Sync() error {
	var err error
	s.t.leafCur("wal.jobs_sync", func() { err = s.WALStore.Sync() })
	return err
}

// replayJobs submits the run's jobs one at a time to a jobs.Manager over
// a fresh job WAL, with the server's run path (parse, discover) as the
// job runner, and waits for each.
func (t *tracer) replayJobs(d *durable, dir string) error {
	store, err := jobs.OpenWAL(filepath.Join(dir, "jobs.wal"), jobs.WALOptions{})
	if err != nil {
		return err
	}
	m, err := jobs.New(jobs.Config{
		Store: tracedStore{store, t},
		Run: func(ctx context.Context, spec jobs.Spec) (jobs.Result, error) {
			var rel *relation.Relation
			var err error
			t.leafCur("relation.ingest", func() { rel, err = parse(spec.CSV) })
			t.countIngest(len(spec.CSV))
			if err != nil {
				return jobs.Result{}, err
			}
			reg := obs.New()
			var out server.DiscoverOutput
			t.leafCur("registry.discover", func() { out, err = server.RunDiscover(ctx, rel, spec.Algo, serverParams(reg)) })
			t.countEngine(reg)
			return jobs.Result{Lines: out.Lines, Partial: out.Partial, Reason: out.Reason}, err
		},
	})
	if err != nil {
		store.Close()
		return err
	}
	defer m.Close()
	for i := range d.jobs {
		if err := t.replayJob(m, &d.jobs[i]); err != nil {
			return err
		}
	}
	return nil
}

// replayJob replays one submission: decode, submit-time parse, then the
// job's life in the manager from submit to terminal state as one span,
// whose children are the runner's parse and discover and the log writes.
func (t *tracer) replayJob(m *jobs.Manager, o *op) error {
	req, root := t.request(o.kind)
	defer t.close(root)
	var jreq server.JobRequest
	var err error
	t.leaf(req, root, "server.decode", func() { err = decodeStrict(o.body, &jreq) })
	if err != nil {
		return err
	}
	t.leaf(req, root, "relation.ingest", func() { _, err = parse(jreq.CSV) })
	t.countIngest(len(jreq.CSV))
	if err != nil {
		return err
	}
	spec := jobs.Spec{Kind: jreq.Kind, Algo: jreq.Algo, CSV: jreq.CSV, Workers: runParams().Workers, TimeoutMs: 30000}
	life := t.open(req, root, "jobs.submit")
	t.mu.Lock()
	t.cur.root = life
	t.mu.Unlock()
	v, err := m.Submit(spec, "")
	if err == nil {
		v, _ = m.Wait(context.Background(), v.ID, 30*time.Second)
	}
	t.close(life)
	t.mu.Lock()
	t.cur.root = root
	t.mu.Unlock()
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	t.leaf(req, root, "server.render", func() { render(&buf, v) })
	return o.check(buf.Bytes())
}
