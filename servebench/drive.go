package main

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// record is one operation of the timed phase. The reply is kept and
// checked after the clock stops, so checking costs the clients nothing.
type record struct {
	op      *op
	start   time.Time     // when the operation was sent
	at      time.Duration // start's offset into the phase's serving time
	latency time.Duration
	status  int
	reply   []byte
	err     error // transport or protocol failure during the run
	checked error // set by checkAll: err, non-200, partial or wrong output
}

func (r *record) failed() bool { return r.checked != nil }

// latencySeconds is the record's latency, +Inf for a failed operation:
// a request that failed misses every latency limit.
func (r *record) latencySeconds() float64 {
	if r.failed() {
		return math.Inf(1)
	}
	return r.latency.Seconds()
}

// checkAll checks every record and returns how many failed.
func checkAll(recs []record) int {
	failed := 0
	for i := range recs {
		r := &recs[i]
		switch {
		case r.err != nil:
			r.checked = r.err
		case r.status != http.StatusOK:
			r.checked = fmt.Errorf("%s: status %d: %.200s", r.op.kind, r.status, r.reply)
		default:
			if err := r.op.check(r.reply); err != nil {
				r.checked = fmt.Errorf("%s: %w", r.op.kind, err)
			}
		}
		if r.checked != nil {
			failed++
		}
	}
	return failed
}

// firstFailure is the first failed record's reason, nil if none failed.
func firstFailure(recs []record) error {
	for i := range recs {
		if recs[i].failed() {
			return recs[i].checked
		}
	}
	return nil
}

// send posts the op's body and times the reply.
func send(in *instance, o *op) record {
	t := time.Now()
	status, reply, err := in.do(http.MethodPost, o.path, o.body)
	return record{op: o, start: t, latency: time.Since(t), status: status, reply: reply, err: err}
}

// phase is what a timed phase measured.
type phase struct {
	recs    []record
	setups  []float64     // set-up times in seconds, one per boot
	serving time.Duration // time the clients were sending
	alloc   uint64        // heap bytes allocated while serving
	stats   srvStats
}

// cyclePhase is the timed phase of ingest-heavy and discover-mix: boots
// timed n times from memory, then the closed-loop clients on the last
// server until the deadline.
func cyclePhase(ops []op, clients, boots, seconds int, wrap func(http.Handler) http.Handler) (phase, error) {
	var p phase
	var in *instance
	for i := 0; i < boots; i++ {
		if in != nil {
			if err := in.stop(); err != nil {
				return p, err
			}
		}
		// Every boot starts from a collected heap, and no collection runs
		// inside it: whether one would land in a sub-millisecond boot
		// depends on the size of the benchmark's own inputs, not on the
		// boot. The boot's garbage is collected before the next one. A
		// short pause lets the stopped server's goroutines and the
		// collector's workers finish, so every boot starts on an idle
		// process, as a real one does.
		runtime.GC()
		time.Sleep(2 * time.Millisecond)
		gcPercent := debug.SetGCPercent(-1)
		var err error
		in, err = boot("", wrap)
		debug.SetGCPercent(gcPercent)
		if err != nil {
			return p, err
		}
		p.setups = append(p.setups, in.setup.Seconds())
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	p.recs = cycle(in, ops, clients, start.Add(time.Duration(seconds)*time.Second))
	p.serving = time.Since(start)
	for i := range p.recs {
		p.recs[i].at = p.recs[i].start.Sub(start)
	}
	runtime.ReadMemStats(&m1)
	p.alloc = m1.TotalAlloc - m0.TotalAlloc
	p.stats = serverStats(in, 0)
	return p, in.stop()
}

// cycle runs the closed-loop clients: each sends its next request only
// after the previous reply, walking the whole op list from its own
// offset, until the deadline. Requests in flight at the deadline
// complete and count.
func cycle(in *instance, ops []op, clients int, deadline time.Time) []record {
	per := make([][]record, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c * len(ops) / clients; time.Now().Before(deadline); k++ {
				per[c] = append(per[c], send(in, &ops[k%len(ops)]))
			}
		}(c)
	}
	wg.Wait()
	var all []record
	for _, rs := range per {
		all = append(all, rs...)
	}
	return all
}
