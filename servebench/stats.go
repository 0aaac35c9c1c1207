package main

import (
	"math"
	"sort"
	"time"
)

// windows is how many equal slices of serving time the latency and
// throughput metrics are computed in. Each is reported as the median of
// its per-window values, so a few seconds of interference from other
// tenants of the host in one slice do not set the run's figure.
const windows = 5

// window is one slice of the timed phase.
type window struct {
	lat       []float64 // primary-request latencies in seconds, failed ones +Inf
	completed int       // operations that succeeded
}

// split assigns each record to the window its start falls in. A run too
// short to give every window a primary request is kept as one window:
// an empty window has no latency to report.
func split(recs []record, primary string, serving time.Duration) (ws []window, width time.Duration) {
	ws = make([]window, windows)
	width = max(serving/windows, 1)
	for i := range recs {
		r := &recs[i]
		w := &ws[min(int(r.at/width), windows-1)]
		if primary == "" || r.op.kind == primary {
			w.lat = append(w.lat, r.latencySeconds())
		}
		if !r.failed() {
			w.completed++
		}
	}
	for _, w := range ws {
		if len(w.lat) == 0 {
			var all window
			for _, w := range ws {
				all.lat = append(all.lat, w.lat...)
				all.completed += w.completed
			}
			return []window{all}, max(serving, 1)
		}
	}
	return ws, width
}

// median returns the middle of xs (the mean of the two middles for an
// even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile of a sample that still has at least
// ten samples beyond it: the eleventh-largest value, reported with the
// percentile it sits at. Below eleven samples there is no such
// percentile and the maximum stands in (pct 100).
type tail struct {
	value float64
	pct   float64
	n     int
}

func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n < 11 {
		return tail{value: s[n-1], pct: 100, n: n}
	}
	return tail{value: s[n-11], pct: 100 * float64(n-10) / float64(n), n: n}
}

// finite maps +Inf (a failed request's latency: it misses every limit,
// and so does anything computed from it) to the largest float so the
// value survives JSON encoding.
func finite(x float64) float64 {
	if math.IsInf(x, 1) {
		return math.MaxFloat64
	}
	return x
}

func ms(secs float64) float64 { return secs * 1e3 }

func mb(bytes float64) float64 { return bytes / (1 << 20) }
