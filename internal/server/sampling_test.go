package server

import (
	"context"
	"encoding/json"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"deptree/internal/jobs"
	"deptree/internal/relation"
)

// TestDiscoverSamplingUnsupportedRejected: sample knobs on a discoverer
// without sample-then-verify support are a pre-admission 400 — the
// request never reaches the guarded pipeline, so the breaker counter
// stays untouched.
func TestDiscoverSamplingUnsupportedRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	status, body := post(t, ts.URL+"/v1/discover/cords",
		mustJSON(t, DiscoverRequest{CSV: smallCSV, SampleRows: 2}))
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400\n%s", status, body)
	}
	if code := errCode(t, body); code != "sampling_unsupported" {
		t.Errorf("code = %q, want sampling_unsupported", code)
	}
	if trips := s.reg.Counter("server.discover.cords.breaker.trips").Value(); trips != 0 {
		t.Errorf("breaker trips = %d, want 0", trips)
	}
	// The same knobs on a supported discoverer succeed.
	status, body = post(t, ts.URL+"/v1/discover/tane",
		mustJSON(t, DiscoverRequest{CSV: smallCSV, SampleRows: 2, SampleSeed: 1}))
	if status != http.StatusOK {
		t.Fatalf("tane sampled status = %d, want 200\n%s", status, body)
	}
}

// TestDiscoverSampledSubsetOfFull: a served sampled run emits a subset
// of the full run's lines, and a whole-relation "sample" reproduces it
// exactly.
func TestDiscoverSampledSubsetOfFull(t *testing.T) {
	csv := hotelsCSV(t)
	_, ts := newTestServer(t, Config{Workers: 2})
	rel, err := relation.ReadCSVAuto("request", []byte(csv), relation.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"tane", "fastfd", "od", "lexod"} {
		t.Run(algo, func(t *testing.T) {
			full, err := RunDiscover(context.Background(), rel, algo, RunParams{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			fullSet := map[string]bool{}
			for _, l := range full.Lines {
				fullSet[l] = true
			}
			status, body := post(t, ts.URL+"/v1/discover/"+algo,
				mustJSON(t, DiscoverRequest{CSV: csv, SampleRows: rel.Rows() / 3, SampleSeed: 11}))
			if status != 200 {
				t.Fatalf("status = %d\n%s", status, body)
			}
			var got discoverResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			for _, line := range got.Results {
				if !fullSet[line] {
					t.Errorf("sampled run emitted %q, absent from full output", line)
				}
			}
			status, body = post(t, ts.URL+"/v1/discover/"+algo,
				mustJSON(t, DiscoverRequest{CSV: csv, SampleRows: rel.Rows(), SampleSeed: 11}))
			if status != 200 {
				t.Fatalf("trivial sample status = %d\n%s", status, body)
			}
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if strings.Join(got.Results, "\n") != strings.Join(full.Lines, "\n") {
				t.Errorf("whole-relation sample diverges from full run:\n%v\nwant\n%v", got.Results, full.Lines)
			}
		})
	}
}

// TestJobSamplingKnobs: sample knobs ride through job submission — an
// unsupported algo is rejected at submit time, a sampled job returns
// exactly the synchronous sampled reply, and the knobs change the
// result-cache identity (a sampled submit after a full one of the same
// CSV is a fresh run, not a cache hit of the full result).
func TestJobSamplingKnobs(t *testing.T) {
	csv := hotelsCSV(t)
	_, ts := newTestServer(t, Config{Workers: 2})
	status, body := post(t, ts.URL+"/v1/jobs",
		mustJSON(t, JobRequest{Kind: "discover", Algo: "cords", CSV: csv, SampleRows: 2}))
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400\n%s", status, body)
	}
	if code := errCode(t, body); code != "sampling_unsupported" {
		t.Errorf("code = %q, want sampling_unsupported", code)
	}

	submit := func(req JobRequest) jobs.View {
		t.Helper()
		status, body := post(t, ts.URL+"/v1/jobs", mustJSON(t, req))
		if status != http.StatusAccepted && status != http.StatusOK {
			t.Fatalf("submit status = %d\n%s", status, body)
		}
		var v jobs.View
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	wait := func(id string) jobs.View {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "?wait=5")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v jobs.View
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return v
	}

	status, body = post(t, ts.URL+"/v1/discover/tane",
		mustJSON(t, DiscoverRequest{CSV: csv, SampleRows: 3, SampleSeed: 5}))
	if status != http.StatusOK {
		t.Fatalf("sync sampled status = %d\n%s", status, body)
	}
	var syncSampled discoverResponse
	if err := json.Unmarshal(body, &syncSampled); err != nil {
		t.Fatal(err)
	}

	fullDone := wait(submit(JobRequest{Kind: "discover", Algo: "tane", CSV: csv}).ID)
	sampled := submit(JobRequest{Kind: "discover", Algo: "tane", CSV: csv, SampleRows: 3, SampleSeed: 5})
	if sampled.CacheHit {
		t.Error("sampled submit after a full one was served from the full run's cache entry")
	}
	sampledDone := wait(sampled.ID)
	if fullDone.State != jobs.StateDone || sampledDone.State != jobs.StateDone {
		t.Fatalf("job states: full=%s sampled=%s", fullDone.State, sampledDone.State)
	}
	if got, want := strings.Join(sampledDone.Result.Lines, "\n"), strings.Join(syncSampled.Results, "\n"); got != want {
		t.Errorf("sampled job lines (%d) differ from the sync sampled reply (%d):\n%s\nwant\n%s",
			len(sampledDone.Result.Lines), len(syncSampled.Results), got, want)
	}
	fullSet := map[string]bool{}
	for _, l := range fullDone.Result.Lines {
		fullSet[l] = true
	}
	for _, l := range sampledDone.Result.Lines {
		if !fullSet[l] {
			t.Errorf("sampled job emitted %q, absent from full job output %v", l, fullDone.Result.Lines)
		}
	}

	// Distinct cache identity: a re-submission with the same sample knobs
	// may reuse the cached result, but the full-mode and sampled specs
	// must never collide.
	specFull := jobs.Spec{Kind: "discover", Algo: "tane", CSV: csv}
	specSampled := jobs.Spec{Kind: "discover", Algo: "tane", CSV: csv, SampleRows: 3, SampleSeed: 5}
	fpFull, err := specFull.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if specFull.CacheKey(fpFull) == specSampled.CacheKey(fpFull) {
		t.Error("full-mode and sampled specs share a cache key")
	}
	if !reflect.DeepEqual(specSampled.CacheKey(fpFull), specSampled.CacheKey(fpFull)) {
		t.Error("cache key not deterministic")
	}
}
