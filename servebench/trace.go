package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"deptree/internal/deps/fd"
	"deptree/internal/engine"
	"deptree/internal/obs"
	"deptree/internal/relation"
	"deptree/internal/server"
)

// span is one traced interval at a layer boundary. Spans of one
// replayed request share Req; Parent is 0 for the request's root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Alloc  uint64 `json:"alloc_bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. The replay is serial,
// so a leaf span's heap-allocation delta belongs to its call alone.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  int
	// cur is the request being replayed; spans opened from the job
	// runner's goroutine attach to it.
	cur struct{ req, root int }

	ingested int64 // CSV bytes parsed in relation.ingest spans

	engine engineCounts
}

// engineCounts sums the engine counters of the traced registry runs.
type engineCounts struct {
	runs, tasks, hits, misses, products int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<15)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// request opens the root span of a new replayed request.
func (t *tracer) request(kind string) (req, root int) {
	t.mu.Lock()
	t.reqs++
	req = t.reqs
	t.mu.Unlock()
	root = t.open(req, 0, "request."+kind)
	t.mu.Lock()
	t.cur.req, t.cur.root = req, root
	t.mu.Unlock()
	return req, root
}

func (t *tracer) open(req, parent int, name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: t.now()})
	return id
}

func (t *tracer) close(id int) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// leaf times fn as a child span of the given request root, with the
// heap bytes it allocated. ReadMemStats runs outside the span.
func (t *tracer) leaf(req, parent int, name string, fn func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := t.open(req, parent, name)
	fn()
	t.close(id)
	runtime.ReadMemStats(&after)
	t.mu.Lock()
	t.spans[id-1].Alloc = after.TotalAlloc - before.TotalAlloc
	t.mu.Unlock()
}

// leafCur is leaf under the request currently being replayed.
func (t *tracer) leafCur(name string, fn func()) {
	t.mu.Lock()
	req, root := t.cur.req, t.cur.root
	t.mu.Unlock()
	t.leaf(req, root, name, fn)
}

// countIngest adds the CSV bytes one relation.ingest span parsed.
func (t *tracer) countIngest(n int) {
	t.mu.Lock()
	t.ingested += int64(n)
	t.mu.Unlock()
}

// countEngine adds one registry run's engine counters.
func (t *tracer) countEngine(reg *obs.Registry) {
	c := map[string]int64{}
	for _, v := range reg.Snapshot().Counters {
		c[v.Name] = v.Value
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.engine.runs++
	t.engine.tasks += c["engine.tasks.completed"]
	t.engine.hits += c["cache.hits"]
	t.engine.misses += c["cache.misses"]
	t.engine.products += c["partition.products_total"]
}

// decodeStrict decodes a request body as the server does: unknown
// fields rejected, trailing data rejected.
func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return fmt.Errorf("trailing data after JSON body")
	}
	return nil
}

// serverParams are the run knobs the handlers pass for a request with
// no budget fields: all workers, the default 30s deadline.
func serverParams(reg *obs.Registry) server.RunParams {
	p := runParams()
	p.Budget = engine.Budget{Timeout: 30 * time.Second}
	p.Obs = reg
	return p
}

// render encodes the reply as the handler's JSON writer does.
func render(buf *bytes.Buffer, v any) {
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		panic(err) // reply structs of strings, ints and bools always encode
	}
}

// replayOp replays one discover, validate or repair request serially
// through the layers' public calls and checks the rendered reply.
func (t *tracer) replayOp(o *op) error {
	req, root := t.request(o.kind)
	defer t.close(root)
	var csv string
	var err error
	var dreq server.DiscoverRequest
	var vreq server.ValidateRequest
	var rreq server.RepairRequest
	t.leaf(req, root, "server.decode", func() {
		switch o.kind {
		case "validate":
			err = decodeStrict(o.body, &vreq)
			csv = vreq.CSV
		case "repair":
			err = decodeStrict(o.body, &rreq)
			csv = rreq.CSV
		default:
			err = decodeStrict(o.body, &dreq)
			csv = dreq.CSV
		}
	})
	if err != nil {
		return err
	}
	var rel *relation.Relation
	t.leaf(req, root, "relation.ingest", func() { rel, err = parse(csv) })
	t.countIngest(len(csv))
	if err != nil {
		return err
	}
	reg := obs.New()
	p := serverParams(reg)
	var buf bytes.Buffer
	switch o.kind {
	case "validate":
		fds, err := server.ParseFDList(rel.Schema(), vreq.FDs)
		if err != nil {
			return err
		}
		var out server.ValidateOutput
		t.leaf(req, root, "registry.discover", func() { out = server.RunValidate(context.Background(), rel, fds, p) })
		t.leaf(req, root, "server.render", func() {
			render(&buf, validateReply{Report: out.Report, Checked: out.Completed, Rules: out.Rules, Partial: out.Partial, Reason: out.Reason})
			_ = out.Text()
		})
	case "repair":
		f, err := server.ParseFD(rel.Schema(), rreq.FD)
		if err != nil {
			return err
		}
		var out server.RepairOutput
		t.leaf(req, root, "registry.discover", func() { out, err = server.RunRepair(context.Background(), rel, []fd.FD{f}, p) })
		if err != nil {
			return err
		}
		t.leaf(req, root, "server.render", func() {
			render(&buf, repairReply{CSV: out.CSV, Changes: out.Changes, Partial: out.Partial, Reason: out.Reason})
		})
	default:
		var out server.DiscoverOutput
		t.leaf(req, root, "registry.discover", func() { out, err = server.RunDiscover(context.Background(), rel, o.algo, p) })
		if err != nil {
			return err
		}
		t.leaf(req, root, "server.render", func() {
			render(&buf, discoverReply{Algo: o.algo, Count: len(out.Lines), Results: nonNil(out.Lines), Partial: out.Partial, Reason: out.Reason})
			_ = out.Text()
		})
	}
	t.countEngine(reg)
	return o.check(buf.Bytes())
}

func nonNil(xs []string) []string {
	if xs == nil {
		return []string{}
	}
	return xs
}

// layerStat is one layer's traced self times, in milliseconds, and the
// heap bytes its calls allocated.
type layerStat struct {
	self  []float64
	alloc []float64
}

// layers aggregates the spans: self time per layer name (a span's
// duration minus the part its children cover), overall and per request
// kind (the root span's name without "request.").
func (t *tracer) layers() (all map[string]*layerStat, byKind map[string]map[string]*layerStat) {
	child := map[int]int64{}
	kind := map[int]string{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		} else {
			kind[s.Req] = strings.TrimPrefix(s.Name, "request.")
		}
	}
	all = map[string]*layerStat{}
	byKind = map[string]map[string]*layerStat{}
	add := func(m map[string]*layerStat, name string, self float64, alloc uint64) {
		st := m[name]
		if st == nil {
			st = &layerStat{}
			m[name] = st
		}
		st.self = append(st.self, self)
		st.alloc = append(st.alloc, float64(alloc))
	}
	for _, s := range t.spans {
		self := float64(s.End-s.Start-child[s.ID]) / 1e6
		add(all, s.Name, self, s.Alloc)
		k := kind[s.Req]
		if byKind[k] == nil {
			byKind[k] = map[string]*layerStat{}
		}
		add(byKind[k], s.Name, self, s.Alloc)
	}
	return all, byKind
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
