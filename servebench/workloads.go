package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"

	"deptree/internal/deps/fd"
	"deptree/internal/gen"
	"deptree/internal/jobs"
	"deptree/internal/relation"
	"deptree/internal/server"
)

// Workload names, as passed to --workload.
const (
	ingestHeavy   = "ingest-heavy"
	discoverMix   = "discover-mix"
	durableWrites = "durable-writes"
)

var workloadNames = []string{ingestHeavy, discoverMix, durableWrites}

// op is one prepared request: its body is generated before the clock
// starts, and check compares a 200 reply with the output computed in
// process from the same bytes.
type op struct {
	kind  string // request type: "discover.<algo>", "validate", "repair", "stream.append", "job"
	algo  string // the discoverer, for discover, stream and job requests
	path  string
	body  []byte
	check func(reply []byte) error
}

// runParams are the knobs a request with no budget fields runs under:
// the server's worker count and default deadline.
func runParams() server.RunParams {
	return server.RunParams{Workers: runtime.NumCPU()}
}

func csvOf(r *relation.Relation) string {
	var b bytes.Buffer
	if err := relation.WriteCSV(r, &b); err != nil {
		panic(err) // in-memory writer: only a bug fails here
	}
	return b.String()
}

// parse reads a request CSV the way the server's handlers do.
func parse(csv string) (*relation.Relation, error) {
	return relation.ReadCSVAuto("request", []byte(csv), relation.Limits{MaxBytes: 16 << 20})
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return b
}

func equalLines(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Reply shapes of the JSON endpoints, as the benchmark reads them.
type discoverReply struct {
	Algo    string   `json:"algo"`
	Count   int      `json:"count"`
	Results []string `json:"results"`
	Partial bool     `json:"partial"`
	Reason  string   `json:"reason,omitempty"`
}

type validateReply struct {
	Report  string `json:"report"`
	Checked int    `json:"checked"`
	Rules   int    `json:"rules"`
	Partial bool   `json:"partial"`
	Reason  string `json:"reason,omitempty"`
}

type repairReply struct {
	CSV     string   `json:"csv"`
	Changes []string `json:"changes"`
	Partial bool     `json:"partial"`
	Reason  string   `json:"reason,omitempty"`
}

type streamReply struct {
	Session     string   `json:"session"`
	Algo        string   `json:"algo"`
	Seq         int      `json:"seq"`
	Rows        int      `json:"rows"`
	TotalRows   int      `json:"total_rows"`
	Fingerprint string   `json:"fingerprint"`
	Count       int      `json:"count"`
	Results     []string `json:"results"`
	Added       []string `json:"added"`
	Removed     []string `json:"removed"`
	Partial     bool     `json:"partial"`
	Reason      string   `json:"reason,omitempty"`
}

func decodeReply(b []byte, v any) error {
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("undecodable reply: %w", err)
	}
	return nil
}

func checkLines(got, want []string) error {
	if !equalLines(got, want) {
		return fmt.Errorf("results differ from the in-process run: got %d lines, want %d", len(got), len(want))
	}
	return nil
}

// expectDiscover runs the discoverer in process on the request CSV,
// parsed exactly as the server parses it.
func expectDiscover(algo, csv string) ([]string, error) {
	rel, err := parse(csv)
	if err != nil {
		return nil, err
	}
	out, err := server.RunDiscover(context.Background(), rel, algo, runParams())
	return out.Lines, err
}

// discoverOp prepares POST /v1/discover/{algo} on the relation.
func discoverOp(algo string, r *relation.Relation) (op, error) {
	csv := csvOf(r)
	want, err := expectDiscover(algo, csv)
	if err != nil {
		return op{}, err
	}
	return op{
		kind: "discover." + algo, algo: algo,
		path: "/v1/discover/" + algo,
		body: mustJSON(server.DiscoverRequest{CSV: csv}),
		check: func(b []byte) error {
			var got discoverReply
			if err := decodeReply(b, &got); err != nil {
				return err
			}
			if got.Partial {
				return fmt.Errorf("partial reply (%s)", got.Reason)
			}
			if got.Algo != algo {
				return fmt.Errorf("reply names algorithm %q", got.Algo)
			}
			if got.Count != len(got.Results) {
				return fmt.Errorf("count %d but %d results", got.Count, len(got.Results))
			}
			return checkLines(got.Results, want)
		},
	}, nil
}

// validateOp prepares POST /v1/validate of the FD list on the relation.
func validateOp(fds string, r *relation.Relation) (op, error) {
	csv := csvOf(r)
	rel, err := parse(csv)
	if err != nil {
		return op{}, err
	}
	list, err := server.ParseFDList(rel.Schema(), fds)
	if err != nil {
		return op{}, err
	}
	want := server.RunValidate(context.Background(), rel, list, runParams())
	return op{
		kind: "validate",
		path: "/v1/validate",
		body: mustJSON(server.ValidateRequest{CSV: csv, FDs: fds}),
		check: func(b []byte) error {
			var got validateReply
			if err := decodeReply(b, &got); err != nil {
				return err
			}
			if got.Partial {
				return fmt.Errorf("partial reply (%s)", got.Reason)
			}
			if got.Report != want.Report || got.Checked != want.Completed || got.Rules != want.Rules {
				return fmt.Errorf("validation report differs from the in-process run")
			}
			return nil
		},
	}, nil
}

// repairOp prepares POST /v1/repair of one FD on the relation.
func repairOp(spec string, r *relation.Relation) (op, error) {
	csv := csvOf(r)
	rel, err := parse(csv)
	if err != nil {
		return op{}, err
	}
	f, err := server.ParseFD(rel.Schema(), spec)
	if err != nil {
		return op{}, err
	}
	want, err := server.RunRepair(context.Background(), rel, []fd.FD{f}, runParams())
	if err != nil {
		return op{}, err
	}
	return op{
		kind: "repair",
		path: "/v1/repair",
		body: mustJSON(server.RepairRequest{CSV: csv, FD: spec}),
		check: func(b []byte) error {
			var got repairReply
			if err := decodeReply(b, &got); err != nil {
				return err
			}
			if got.Partial {
				return fmt.Errorf("partial reply (%s)", got.Reason)
			}
			if got.CSV != want.CSV || !equalLines(got.Changes, want.Changes) {
				return fmt.Errorf("repair differs from the in-process run")
			}
			return nil
		},
	}, nil
}

// hotels is the generator shared by the hotel-shaped inputs: format
// variety, veracity errors and near-duplicates at modest rates, so
// validate and repair have violations to report.
func hotels(rows int, seed int64) *relation.Relation {
	return gen.Hotels(gen.HotelConfig{Rows: rows, Seed: seed, VarietyRate: 0.05, ErrorRate: 0.02, DuplicateRate: 0.05})
}

// ingestOps is ingest-heavy: three distinct 20k-row hotel relations
// (about 1.1 MB of CSV each), each posted to /v1/discover/od and
// /v1/validate (address->region).
func ingestOps(seed int64) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	var ops []op
	for i := 0; i < 3; i++ {
		r := hotels(20000, rng.Int63())
		d, err := discoverOp("od", r)
		if err != nil {
			return nil, err
		}
		v, err := validateOp("address->region", r)
		if err != nil {
			return nil, err
		}
		ops = append(ops, d, v)
	}
	return ops, nil
}

// mixCategorical is the tane input: ten categorical columns, so the
// lattice, not the parse, dominates.
var mixCategorical = []int{2, 3, 3, 4, 5, 6, 8, 10, 12, 20}

// mixOps is discover-mix: small relations sized so each discoverer's
// request runs in roughly 10-100 ms (pairwise fastdc stays at 200 rows),
// plus validate and repair. Inputs are chosen for a cost that varies
// little with the seed (lexod runs on the ordered shape, whose cost is
// steady, not on hotels, whose cost swings with the data), and six
// seeded variants of each are interleaved so a client's cycle visits
// every request type in turn.
func mixOps(seed int64) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	var ops []op
	for v := 0; v < 6; v++ {
		build := []func() (op, error){
			func() (op, error) { return discoverOp("tane", gen.Categorical(1000, mixCategorical, rng.Int63())) },
			func() (op, error) { return discoverOp("fastfd", hotels(500, rng.Int63())) },
			func() (op, error) { return discoverOp("cords", gen.LargeOrdered(3000, rng.Int63())) },
			func() (op, error) { return discoverOp("lexod", gen.LargeOrdered(1000, rng.Int63())) },
			func() (op, error) { return discoverOp("pfd", hotels(500, rng.Int63())) },
			func() (op, error) { return discoverOp("fastdc", hotels(200, rng.Int63())) },
			func() (op, error) { return validateOp("address->region", hotels(2000, rng.Int63())) },
			func() (op, error) { return repairOp("address->region", hotels(1000, rng.Int63())) },
		}
		for _, b := range build {
			o, err := b()
			if err != nil {
				return nil, err
			}
			ops = append(ops, o)
		}
	}
	return ops, nil
}

// jobOp prepares POST /v1/jobs for an async discover job; check reads
// the terminal GET /v1/jobs/{id} view.
func jobOp(algo string, r *relation.Relation) (op, error) {
	csv := csvOf(r)
	want, err := expectDiscover(algo, csv)
	if err != nil {
		return op{}, err
	}
	return op{
		kind: "job", algo: algo,
		path: "/v1/jobs",
		body: mustJSON(server.JobRequest{Kind: "discover", Algo: algo, CSV: csv}),
		check: func(b []byte) error {
			var got jobs.View
			if err := decodeReply(b, &got); err != nil {
				return err
			}
			if got.State != jobs.StateDone || got.Result == nil {
				return fmt.Errorf("job %s ended %s (%s)", got.ID, got.State, got.Reason)
			}
			return checkLines(got.Result.Lines, want)
		},
	}, nil
}

// jobAlgos and jobInput give the durable workload's small job inputs:
// each run takes a few milliseconds, so jobs exercise the queue and
// the log rather than the discovery cores.
var jobAlgos = []string{"tane", "od", "fastfd", "lexod"}

func jobInput(algo string, seed int64) *relation.Relation {
	switch algo {
	case "tane":
		return gen.Categorical(1000, mixCategorical[:8], seed)
	case "fastfd":
		return hotels(300, seed)
	default:
		return hotels(800, seed)
	}
}

// resubmitEvery is the recorded share of durable jobs that resubmit an
// earlier spec (every fourth job repeats the spec of the job two
// before it), which the job result cache answers.
const resubmitEvery = 4

// jobOps prepares n jobs: fresh specs cycling through jobAlgos, and
// every resubmitEvery-th job a resubmission.
func jobOps(seed int64, n int) ([]op, error) {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]op, 0, n)
	for k := 0; k < n; k++ {
		if k%resubmitEvery == resubmitEvery-1 {
			ops = append(ops, ops[k-2])
			continue
		}
		algo := jobAlgos[k%len(jobAlgos)]
		o, err := jobOp(algo, jobInput(algo, rng.Int63()))
		if err != nil {
			return nil, err
		}
		ops = append(ops, o)
	}
	return ops, nil
}

// streamPlan is one durable stream session: a base relation and the
// batchRows-row batches appended to it, as CSV.
type streamPlan struct {
	algo      string
	base      string   // header plus base rows
	batches   []string // header plus batchRows rows each
	baseRows  int
	batchRows []int  // rows per batch (the drift batch carries extra rows)
	session   string // assigned by the server at creation
}

func newStreamPlan(algo string, seed int64, batches, driftAt int) streamPlan {
	p := gen.AppendBatches(gen.AppendConfig{BaseRows: 1000, BatchRows: batchRows, Batches: batches, DriftAt: driftAt, Seed: seed})
	sp := streamPlan{algo: algo, base: csvOf(p.Base), baseRows: p.Base.Rows()}
	for _, rows := range p.Batches {
		sp.batchRows = append(sp.batchRows, len(rows))
		b := relation.New("batch", p.Base.Schema())
		for _, row := range rows {
			if err := b.Append(row); err != nil {
				panic(err) // generated rows always match the generated schema
			}
		}
		sp.batches = append(sp.batches, csvOf(b))
	}
	return sp
}

// accumulated parses the base and every batch exactly as the server
// does: kinds inferred from the base, batches read with them.
func (p streamPlan) accumulated() (*relation.Relation, error) {
	rel, err := parse(p.base)
	if err != nil {
		return nil, err
	}
	kinds := make([]relation.Kind, rel.Cols())
	for i := range kinds {
		kinds[i] = rel.Schema().Attr(i).Kind
	}
	for _, csv := range p.batches {
		b, err := relation.ReadCSVLimits("batch", strings.NewReader(csv), kinds, relation.Limits{})
		if err != nil {
			return nil, err
		}
		for i := 0; i < b.Rows(); i++ {
			if err := rel.Append(b.Tuple(i)); err != nil {
				return nil, err
			}
		}
	}
	return rel, nil
}

// expectLines is the from-scratch discovery over the base and every
// batch.
func (p streamPlan) expectLines() ([]string, error) {
	rel, err := p.accumulated()
	if err != nil {
		return nil, err
	}
	out, err := server.RunDiscover(context.Background(), rel, p.algo, runParams())
	return out.Lines, err
}
