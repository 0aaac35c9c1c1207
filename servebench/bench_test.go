package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// benchmarkFile is the repository's BENCHMARK.json, as far as the
// benchmark reads it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNamesUseOnlyAllowedCharacters(t *testing.T) {
	names := append(append(append([]string{}, workloadNames...), endToEnd...), perLayer...)
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
		names = append(names, m.Name)
	}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q uses characters outside letters, digits, _ . -", n)
		}
	}
}

func TestBenchmarkFileMatchesTheCommand(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range bf.Workloads {
		if !slices.Contains(workloadNames, w.Name) {
			t.Errorf("BENCHMARK.json workload %q is not one the command runs (%v)", w.Name, workloadNames)
		}
	}
	var e2e, layer []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name)
	}
	if strings.Join(e2e, ",") != strings.Join(endToEnd, ",") {
		t.Errorf("BENCHMARK.json end_to_end %v, command emits %v", e2e, endToEnd)
	}
	if strings.Join(layer, ",") != strings.Join(perLayer, ",") {
		t.Errorf("BENCHMARK.json per_layer %v, command emits %v", layer, perLayer)
	}
}

// shortRun is a shortened pass: one second of load, three boots.
func shortRun(t *testing.T, workload string, trace bool, wrap func(http.Handler) http.Handler) *result {
	t.Helper()
	res, err := run(options{
		workload: workload, seed: 2, seconds: 1, trace: trace,
		workdir: t.TempDir(), boots: 3, wrap: wrap,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestShortPassEmitsEveryMetric runs a shortened pass of each workload,
// untraced and traced, and checks that every metric BENCHMARK.json
// names is emitted with its unit, and that nothing failed.
func TestShortPassEmitsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			res := shortRun(t, w, trace, nil)
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s not emitted", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s in %q, BENCHMARK.json says %q", w, trace, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w, trace, m.Name, got.Value)
				}
			}
			for _, name := range endToEnd {
				if v := res.Metrics[name].Value; !trace && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, name, v)
				}
			}
		}
	}
}

// corrupt rewrites the reply body of every discover response whose
// 1-based index pick accepts, so its results no longer match.
func corrupt(pick func(n int64) bool) func(http.Handler) http.Handler {
	var seen atomic.Int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !strings.HasPrefix(r.URL.Path, "/v1/discover/") || !pick(seen.Add(1)) {
				next.ServeHTTP(w, r)
				return
			}
			rec := httptest.NewRecorder()
			next.ServeHTTP(rec, r)
			body := bytes.Replace(rec.Body.Bytes(), []byte(`"results":[`), []byte(`"results":["X->Y",`), 1)
			for k, v := range rec.Header() {
				w.Header()[k] = v
			}
			w.WriteHeader(rec.Code)
			w.Write(body)
		})
	}
}

func TestCorruptedReplyCountsAsFailure(t *testing.T) {
	res := shortRun(t, discoverMix, false, corrupt(func(n int64) bool { return n == 2 }))
	if res.Correct || res.Failed != 1 {
		t.Fatalf("corrupted reply: correct=%v failed=%d, want false and 1", res.Correct, res.Failed)
	}
}

// TestManyFailuresStillPrintAResult corrupts every discover reply, so
// more than half the requests fail and the median and tail latencies
// are infinite. The run must still end in a result line that reports
// the failures.
func TestManyFailuresStillPrintAResult(t *testing.T) {
	for _, trace := range []bool{false, true} {
		// Five seconds give well over eleven requests, also under -race.
		res, err := run(options{
			workload: discoverMix, seed: 2, seconds: 5, trace: trace,
			workdir: t.TempDir(), boots: 3, wrap: corrupt(func(int64) bool { return true }),
		}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed < 11 || 2*res.Failed <= res.Attempted {
			t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d, want more than half and at least 11 failed",
				trace, res.Correct, res.Attempted, res.Failed)
		}
		line, err := res.line()
		if err != nil {
			t.Fatalf("trace=%v: result line: %v", trace, err)
		}
		var back result
		if err := json.Unmarshal(line, &back); err != nil || back.Failed != res.Failed {
			t.Fatalf("trace=%v: result line %s does not read back: %v", trace, line, err)
		}
		if !trace && back.Metrics["latency_p50_ms"].Value != math.MaxFloat64 {
			t.Errorf("latency_p50_ms = %v, want the largest float for a median of failed requests", back.Metrics["latency_p50_ms"].Value)
		}
	}
}

func TestCheckRejectsAlteredOutput(t *testing.T) {
	ops, err := mixOps(3)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	for i := range ops {
		// The traced replay renders each reply as the server would and
		// checks it, so a passing replay is a reply the check accepts.
		if err := tr.replayOp(&ops[i]); err != nil {
			t.Fatalf("%s: %v", ops[i].kind, err)
		}
	}
	for _, bad := range []string{``, `{}`, `{"partial":true}`, `{"results":["X->Y"],"count":1}`} {
		for i := range ops {
			if ops[i].check([]byte(bad)) == nil {
				t.Errorf("%s accepted %q", ops[i].kind, bad)
			}
		}
	}
}

func TestTailIsEleventhLargest(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	tl := tailOf(xs)
	if tl.value != 90 || tl.pct != 90 || tl.n != 100 {
		t.Fatalf("tail of 1..100 = %+v, want value 90 at p90", tl)
	}
	xs = append(xs, math.Inf(1))
	if tl := tailOf(xs); tl.value != 91 {
		t.Fatalf("a failed sample counts as slowest: tail = %v, want 91", tl.value)
	}
}

func TestSplitAssignsRecordsToWindows(t *testing.T) {
	primary, other := &op{kind: "p"}, &op{kind: "q"}
	var recs []record
	for k := 0; k < windows; k++ {
		recs = append(recs, record{op: primary, at: time.Duration(2 * k), latency: 1e6})
	}
	recs = append(recs,
		record{op: other, at: 1, latency: 1e6},
		record{op: primary, at: 9, latency: 3e6, checked: errors.New("wrong")},
		record{op: primary, at: 10, latency: 2e6}, // the deadline's in-flight request lands in the last window
	)
	ws, width := split(recs, "p", 10)
	if len(ws) != windows || width != 10/windows {
		t.Fatalf("%d windows of %v, want %d of %v", len(ws), width, windows, 10/windows)
	}
	first, last := ws[0], ws[windows-1]
	if len(first.lat) != 1 || first.completed != 2 {
		t.Errorf("first window: %d primary latencies, %d completed; want 1 and 2", len(first.lat), first.completed)
	}
	if len(last.lat) != 3 || last.completed != 2 || !math.IsInf(slices.Max(last.lat), 1) {
		t.Errorf("last window: latencies %v, %d completed; want three with a failed one (+Inf), two completed", last.lat, last.completed)
	}
	// Without a primary request in every window the run is one window.
	ws, width = split(recs[windows-1:], "p", 10)
	if len(ws) != 1 || width != 10 || len(ws[0].lat) != 3 || ws[0].completed != 3 {
		t.Errorf("a run with empty windows: %d windows of %v, want one of 10ns holding every record", len(ws), width)
	}
}
