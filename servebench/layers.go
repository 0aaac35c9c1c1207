package main

import (
	"fmt"
	"io"
	"strings"
)

// srvStats are the servers' own counters over the timed phase, summed
// over every server it booted.
type srvStats struct {
	shed                   int64
	submitted              int64
	syncs                  int64
	cacheHits, cacheMisses int64 // job result cache
	queueSecs, runSecs     float64
	queued, ran            int64
}

// serverStats reads a server's counters; syncsBefore is its job WAL's
// sync count when the phase began (the boot's replay syncs excluded).
func serverStats(in *instance, syncsBefore int64) srvStats {
	var st srvStats
	snap := in.reg.Snapshot()
	c := map[string]int64{}
	for _, v := range snap.Counters {
		c[v.Name] = v.Value
	}
	st.shed = c["server.admission.shed"]
	st.submitted = c["jobs.submitted"]
	st.cacheHits, st.cacheMisses = c["jobs.cache.hits"], c["jobs.cache.misses"]
	for _, h := range snap.Histograms {
		switch h.Name {
		case "jobs.queue.seconds":
			st.queueSecs, st.queued = h.Sum, h.Count
		case "jobs.run.seconds":
			st.runSecs, st.ran = h.Sum, h.Count
		}
	}
	if in.store != nil {
		_, syncs := in.store.Stats()
		st.syncs = syncs - syncsBefore
	}
	return st
}

func (st *srvStats) add(o srvStats) {
	st.shed += o.shed
	st.submitted += o.submitted
	st.syncs += o.syncs
	st.cacheHits += o.cacheHits
	st.cacheMisses += o.cacheMisses
	st.queueSecs += o.queueSecs
	st.runSecs += o.runSecs
	st.queued += o.queued
	st.ran += o.ran
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, 0 when b is 0.
func ratio[T int64 | float64](a, b T) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics turns the traced spans into the per-layer metrics,
// prints every one of them, and returns those of the result line.
// untraced holds each request type's median latency from the untraced
// timed phase; server.residual_ms is that median minus the sum of the
// traced layer medians for the same type (HTTP, admission wait,
// handler glue, and contention), averaged over the primary types by
// request count. The stream, wal and jobs metrics read 0 on the
// workloads that do no stream, log or job work.
func layerMetrics(out io.Writer, t *tracer, untraced map[string]kindStat, st srvStats, g walGrowth, durable bool) map[string]metric {
	all, perKind := t.layers()
	p50 := func(m map[string]*layerStat, name string) float64 {
		if s := m[name]; s != nil {
			return median(s.self)
		}
		return 0
	}
	allocMB := func(name string) float64 {
		if s := all[name]; s != nil {
			return mb(mean(s.alloc))
		}
		return 0
	}
	ingestSecs := 0.0
	if s := all["relation.ingest"]; s != nil {
		ingestSecs = sum(s.self) / 1e3
	}
	e := t.engine
	app := perKind["stream.append"]

	var resid, weight float64
	for _, k := range sortedKeys(untraced) {
		layers := perKind[k]
		if layers == nil || (durable && k != "stream.append") {
			continue
		}
		traced := 0.0
		for name := range layers {
			if !strings.HasPrefix(name, "request.") {
				traced += p50(layers, name)
			}
		}
		u := untraced[k]
		fmt.Fprintf(out, "  residual %-16s untraced p50 %.3fms - traced layers %.3fms = %.3fms\n", k, u.p50, traced, u.p50-traced)
		resid += float64(u.n) * (u.p50 - traced)
		weight += float64(u.n)
	}
	if weight > 0 {
		resid /= weight
	}

	m := map[string]metric{
		"server.decode_ms":           {p50(all, "server.decode"), "ms"},
		"server.decode_alloc_mb":     {allocMB("server.decode"), "MB"},
		"relation.ingest_ms":         {p50(all, "relation.ingest"), "ms"},
		"relation.ingest_alloc_mb":   {allocMB("relation.ingest"), "MB"},
		"relation.ingest_mb_per_s":   {ratio(mb(float64(t.ingested)), ingestSecs), "MB/s"},
		"registry.discover_ms":       {p50(all, "registry.discover"), "ms"},
		"registry.discover_alloc_mb": {allocMB("registry.discover"), "MB"},
		"engine.tasks":               {ratio(float64(e.tasks), float64(e.runs)), "count"},
		"engine.cache_hit_ratio":     {ratio(e.hits, e.hits+e.misses), "ratio"},
		"partition.products":         {ratio(float64(e.products), float64(e.runs)), "count"},
		"server.render_ms":           {p50(all, "server.render"), "ms"},
		"server.residual_ms":         {resid, "ms"},
		"server.admission_shed":      {float64(st.shed), "count"},
		"stream.append_ms":           {p50(app, "stream.append"), "ms"},
		"wal.append_ms":              {p50(app, "wal.append"), "ms"},
		"wal.bytes_per_input_byte":   {ratio(g.logBytes, g.csvBytes), "ratio"},
		"wal.jobs_append_ms":         {p50(all, "wal.jobs_append"), "ms"},
		"jobs.fsyncs_per_submit":     {ratio(st.syncs, st.submitted), "ratio"},
		"jobs.queue_ms":              {ms(ratio(st.queueSecs, float64(st.queued))), "ms"},
		"jobs.run_ms":                {ms(ratio(st.runSecs, float64(st.ran))), "ms"},
		"jobs.cache_hit_ratio":       {ratio(st.cacheHits, st.cacheHits+st.cacheMisses), "ratio"},
	}
	for _, name := range perLayer {
		fmt.Fprintf(out, "%s %.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	for _, k := range sortedKeys(perKind) {
		if s := perKind[k]["registry.discover"]; s != nil {
			fmt.Fprintf(out, "registry.discover_ms.%s %.6g ms (n=%d)\n", strings.TrimPrefix(k, "discover."), median(s.self), len(s.self))
		}
	}
	return m
}
