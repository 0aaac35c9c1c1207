// Command servebench is deptree's end-to-end serving benchmark. It boots
// the real server (server.New(...).Handler() on a loopback listener) in
// process, drives one workload through the HTTP path with closed-loop
// clients, checks every reply against the output computed in process
// from the same request bytes, and prints each metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":v,"unit":"u"},...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off; with --trace 1 the run is repeated untraced (for the
// residual) and then every request is replayed serially through each
// layer's public functions with spans around the calls, giving the
// per-layer metrics. Spans are written to <workdir>/traces/.
//
// Run it from the repository root:
//
//	bash servebench/run.sh --workload ingest-heavy --seed 1 --seconds 30 --trace 0
//
// The workloads are described in servebench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
)

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
	// boots is how many in-memory boots are timed (0 = 101; durable-writes
	// times each round's boot instead); wrap wraps the server's handler
	// (tests corrupt replies).
	boots int
	wrap  func(http.Handler) http.Handler
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer name the metrics of the result line with --trace
// 0 and 1, in print order; BENCHMARK.json lists the same names.
var (
	endToEnd = []string{"setup_s", "latency_p50_ms", "latency_tail_ms", "throughput_rps", "alloc_mb_per_req", "peak_rss_mb"}
	perLayer = []string{
		"server.decode_ms", "server.decode_alloc_mb",
		"relation.ingest_ms", "relation.ingest_alloc_mb", "relation.ingest_mb_per_s",
		"registry.discover_ms", "registry.discover_alloc_mb",
		"engine.tasks", "engine.cache_hit_ratio", "partition.products",
		"server.render_ms", "server.residual_ms", "server.admission_shed",
		"stream.append_ms", "wal.append_ms", "wal.bytes_per_input_byte", "wal.jobs_append_ms",
		"jobs.fsyncs_per_submit", "jobs.queue_ms", "jobs.run_ms", "jobs.cache_hit_ratio",
	}
)

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is generated from")
	flag.IntVar(&o.seconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced replay")
	flag.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "servebench"), "directory for logs and traces")
	flag.Parse()
	o.trace = trace == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	line, err := res.line()
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// line is the result as the JSON line printed last. A metric computed
// from failed requests' latencies is infinite; it is printed as the
// largest float, so a broken server still gets a result line.
func (r *result) line() ([]byte, error) {
	for k, m := range r.Metrics {
		m.Value = finite(m.Value)
		r.Metrics[k] = m
	}
	return json.Marshal(r)
}

// run executes one workload run and returns its result line; the
// human-readable report goes to out.
func run(o options, out io.Writer) (*result, error) {
	if o.seconds < 1 {
		return nil, fmt.Errorf("--seconds must be at least 1")
	}
	var ops []op
	var d *durable
	var err error
	switch o.workload {
	case ingestHeavy:
		ops, err = ingestOps(o.seed)
	case discoverMix:
		ops, err = mixOps(o.seed)
	case durableWrites:
		d, err = newDurable(o.seed)
		restore := useNosyncFS()
		defer restore()
	default:
		return nil, fmt.Errorf("unknown --workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return nil, fmt.Errorf("generate inputs: %w", err)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	clients := min(2, runtime.NumCPU())
	fmt.Fprintf(out, "servebench workload=%s seed=%d seconds=%d trace=%d nproc=%d\n",
		o.workload, o.seed, o.seconds, btoi(o.trace), runtime.NumCPU())

	// Set-up is timed over several boots and reported as their median:
	// the rounds' boots on durable-writes, repeated boots from memory on
	// the others.
	var pre string
	if d != nil {
		pre = filepath.Join(tmp, "prewritten")
		if err := d.prewrite(pre); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "durable: rounds of %d appends per session (tane and od, in turn) and %d jobs, each round booting over "+
			"the pre-written log of %d batches per session and %d jobs; every %dth job resubmits an earlier spec\n",
			roundBatches, roundJobs, preBatches, preJobs, resubmitEvery)
	} else {
		fmt.Fprintf(out, "%s: %d closed-loop clients over %d distinct requests\n", o.workload, clients, len(ops))
	}
	debug.FreeOSMemory()
	// The peak RSS reported is the timed phase's: the high-water mark is
	// reset here, after input generation and the expected outputs.
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var ph phase
	if d != nil {
		ph, err = d.phase(pre, tmp, o.seconds, o.wrap)
	} else {
		boots := o.boots
		if boots == 0 {
			boots = 101
		}
		ph, err = cyclePhase(ops, clients, boots, o.seconds, o.wrap)
	}
	if err != nil {
		return nil, err
	}
	// Read before the post-run checks, which are the benchmark's own work.
	peakRSS, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	recs, setups, srvStats := ph.recs, ph.setups, ph.stats
	failed := checkAll(recs)
	completed := len(recs) - failed

	res := &result{Correct: failed == 0, Attempted: len(recs), Failed: failed, Metrics: map[string]metric{}}
	primary := "stream.append"
	if d == nil {
		primary = ""
	}
	byKind := accounting(out, recs, primary)
	ws, width := split(recs, primary, ph.serving)
	var p50s, tails, rates []float64
	var tls []tail
	for _, w := range ws {
		tl := tailOf(w.lat)
		p50s, tails, tls = append(p50s, ms(median(w.lat))), append(tails, ms(tl.value)), append(tls, tl)
		rates = append(rates, float64(w.completed)/width.Seconds())
	}
	e2e := map[string]metric{
		"setup_s":          {median(setups), "s"},
		"latency_p50_ms":   {median(p50s), "ms"},
		"latency_tail_ms":  {median(tails), "ms"},
		"throughput_rps":   {median(rates), "1/s"},
		"alloc_mb_per_req": {mb(float64(ph.alloc)) / float64(max(completed, 1)), "MB"},
		"peak_rss_mb":      {peakRSS, "MB"},
	}
	fmt.Fprintf(out, "setup_s %.6f s (median of %d boots, min %.6f, max %.6f)\n",
		e2e["setup_s"].Value, len(setups), slices.Min(setups), slices.Max(setups))
	fmt.Fprintf(out, "serving split into %d windows of %.3fs; the next three metrics are medians of their window values\n", len(ws), width.Seconds())
	fmt.Fprintf(out, "latency_p50_ms %.3f ms (%s%s)\n", e2e["latency_p50_ms"].Value, list(p50s), primaryNote(primary))
	fmt.Fprintf(out, "latency_tail_ms %.3f ms (%s; per window the 11th-largest, at", e2e["latency_tail_ms"].Value, list(tails))
	for _, tl := range tls {
		fmt.Fprintf(out, " p%.2f of n=%d", tl.pct, tl.n)
	}
	fmt.Fprintln(out, ")")
	fmt.Fprintf(out, "throughput_rps %.3f 1/s (%s; %d completed in %.3fs of serving)\n", e2e["throughput_rps"].Value, list(rates), completed, ph.serving.Seconds())
	fmt.Fprintf(out, "error_rate %.6f ratio (%d of %d)\n", float64(failed)/float64(max(len(recs), 1)), failed, len(recs))
	fmt.Fprintf(out, "alloc_mb_per_req %.3f MB\n", e2e["alloc_mb_per_req"].Value)
	fmt.Fprintf(out, "peak_rss_mb %.1f MB\n", e2e["peak_rss_mb"].Value)
	if d != nil {
		jl := latencies(recs, "job")
		jt := tailOf(jl)
		fmt.Fprintf(out, "job_turnaround_p50_ms %.3f ms (n=%d)\n", ms(median(jl)), len(jl))
		fmt.Fprintf(out, "job_turnaround_tail_ms %.3f ms (p%.2f, n=%d, 10 samples beyond)\n", ms(jt.value), jt.pct, jt.n)
	}
	if err := firstFailure(recs); err != nil {
		fmt.Fprintln(os.Stderr, "servebench: first failure:", err)
	}

	if !o.trace {
		res.Metrics = e2e
		return res, nil
	}

	// Traced replay: serial, uncontended, spans around each layer call.
	t := newTracer()
	var g walGrowth
	if d != nil {
		if g, err = t.replayStreams(d, tmp); err == nil {
			err = t.replayJobs(d, tmp)
		}
	} else {
		for rep := 0; rep < traceReps(o.workload) && err == nil; rep++ {
			for i := range ops {
				if err = t.replayOp(&ops[i]); err != nil {
					break
				}
			}
		}
	}
	if err != nil {
		// A replay that fails or disagrees with the expected output is a
		// failed request like any other.
		res.Correct = false
		res.Failed++
		fmt.Fprintln(os.Stderr, "servebench: traced replay failed:", err)
	}
	if err := os.MkdirAll(filepath.Join(o.workdir, "traces"), 0o755); err != nil {
		return nil, err
	}
	tracePath := filepath.Join(o.workdir, "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
	if err := t.write(tracePath); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	res.Metrics = layerMetrics(out, t, byKind, srvStats, g, d != nil)
	fmt.Fprintf(out, "trace: %d spans over %d requests in %s\n", len(t.spans), t.reqs, tracePath)
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func primaryNote(kind string) string {
	if kind == "" {
		return "; all requests"
	}
	return "; " + kind + " requests"
}

func list(xs []float64) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(s, " ")
}

// traceReps is how often the traced replay walks the op list: enough
// samples per request type for a stable median.
func traceReps(workload string) int {
	if workload == ingestHeavy {
		return 4
	}
	return 2
}

// latencies are the latencies in seconds of the records of one kind
// ("" = all), failed ones as +Inf.
func latencies(recs []record, kind string) []float64 {
	var xs []float64
	for i := range recs {
		if kind == "" || recs[i].op.kind == kind {
			xs = append(xs, recs[i].latencySeconds())
		}
	}
	return xs
}

// accounting prints requests sent, succeeded and failed per request
// type, and returns each type's untraced median latency in ms for the
// residual.
func accounting(out io.Writer, recs []record, primary string) map[string]kindStat {
	stats := map[string]kindStat{}
	for _, k := range kindsOf(recs) {
		lat := latencies(recs, k)
		failed := 0
		for i := range recs {
			if recs[i].op.kind == k && recs[i].failed() {
				failed++
			}
		}
		st := kindStat{n: len(lat), p50: ms(median(lat))}
		stats[k] = st
		mark := ""
		if primary == "" || k == primary {
			mark = " (primary)"
		}
		fmt.Fprintf(out, "  %-16s sent=%d succeeded=%d failed=%d p50=%.3fms%s\n", k, len(lat), len(lat)-failed, failed, st.p50, mark)
	}
	return stats
}

type kindStat struct {
	n   int
	p50 float64
}

func kindsOf(recs []record) []string {
	seen := map[string]bool{}
	var ks []string
	for i := range recs {
		if k := recs[i].op.kind; !seen[k] {
			seen[k] = true
			ks = append(ks, k)
		}
	}
	sort.Strings(ks)
	return ks
}

// resetPeakRSS resets the process's resident-set high-water mark
// (VmHWM) to its current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM, KiB)
// in MiB.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(v, "%f kB", &kib); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
