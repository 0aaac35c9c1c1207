package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"deptree/internal/engine"
	"deptree/internal/gen"
	"deptree/internal/obs"
	"deptree/internal/relation"
)

// smallCSV is a handcrafted relation with a name->city violation (alpha
// maps to two cities), used by the validate/repair tests.
const smallCSV = "name,city,stars\nalpha,paris,3\nalpha,rome,3\nbeta,rome,4\ngamma,oslo,5\n"

// hotelsCSV renders the deterministic synthetic hotels relation, large
// enough that every discoverer schedules real pool work.
func hotelsCSV(t *testing.T) string {
	t.Helper()
	r := gen.Hotels(gen.HotelConfig{Rows: 40, Seed: 5, ErrorRate: 0.1})
	var buf bytes.Buffer
	if err := relation.WriteCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends a JSON body and returns status plus raw response body.
func post(t *testing.T, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// errCode decodes a structured error body and returns its code.
func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("error body is not structured JSON: %v\n%s", err, body)
	}
	if eb.Error.Code == "" {
		t.Fatalf("error body missing code:\n%s", body)
	}
	return eb.Error.Code
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func TestHealthAndReadyEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	for _, ep := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Errorf("%s = %d, want 200", ep, resp.StatusCode)
		}
	}
	s.BeginDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining readyz = %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("draining readyz body = %q", body)
	}
	// healthz keeps answering 200: the process is alive, just not ready.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("draining healthz = %d, want 200", resp.StatusCode)
	}
}

func TestDiscoverRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxInputBytes: 1 << 20})
	url := ts.URL + "/v1/discover/"
	cases := []struct {
		name, algo, body string
		wantStatus       int
		wantCode         string
	}{
		{"unknown algo", "nope", mustJSON(t, DiscoverRequest{CSV: smallCSV}), 404, "unknown_algo"},
		{"malformed JSON", "tane", "{", 400, "bad_request"},
		{"trailing data", "tane", mustJSON(t, DiscoverRequest{CSV: smallCSV}) + "{}", 400, "bad_request"},
		{"unknown field", "tane", `{"csv":"a\n1\n","nope":1}`, 400, "bad_request"},
		{"missing csv", "tane", "{}", 400, "missing_csv"},
		{"bad csv", "tane", mustJSON(t, DiscoverRequest{CSV: "a,b\n1\n"}), 400, "invalid_csv"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := post(t, url+tc.algo, tc.body)
			if status != tc.wantStatus {
				t.Fatalf("status = %d, want %d\n%s", status, tc.wantStatus, body)
			}
			if code := errCode(t, body); code != tc.wantCode {
				t.Errorf("code = %q, want %q", code, tc.wantCode)
			}
		})
	}
}

func TestDiscoverRejectsOversizedCSV(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxInputBytes: 64})
	status, body := post(t, ts.URL+"/v1/discover/tane", mustJSON(t, DiscoverRequest{CSV: smallCSV}))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413\n%s", status, body)
	}
	if code := errCode(t, body); code != "input_too_large" {
		t.Errorf("code = %q, want input_too_large", code)
	}
}

func TestDiscoverRejectsTooManyRows(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxRows: 2})
	status, body := post(t, ts.URL+"/v1/discover/tane", mustJSON(t, DiscoverRequest{CSV: smallCSV}))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413\n%s", status, body)
	}
	if code := errCode(t, body); code != "input_too_large" {
		t.Errorf("code = %q, want input_too_large", code)
	}
}

func TestDiscoverHappyPathMatchesRunner(t *testing.T) {
	csv := hotelsCSV(t)
	_, ts := newTestServer(t, Config{Workers: 2})
	rel, err := relation.ReadCSVAuto("request", []byte(csv), relation.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range Algorithms() {
		t.Run(algo, func(t *testing.T) {
			want, err := RunDiscover(context.Background(), rel, algo, RunParams{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			status, body := post(t, ts.URL+"/v1/discover/"+algo, mustJSON(t, DiscoverRequest{CSV: csv}))
			if status != 200 {
				t.Fatalf("status = %d\n%s", status, body)
			}
			var got discoverResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if got.Algo != algo || got.Partial || got.Count != len(want.Lines) {
				t.Errorf("response header mismatch: %+v", got)
			}
			if strings.Join(got.Results, "\n") != strings.Join(want.Lines, "\n") {
				t.Errorf("results diverge from runner:\n%v\nwant\n%v", got.Results, want.Lines)
			}
			// ?format=text is byte-identical to the runner's CLI rendering.
			status, text := post(t, ts.URL+"/v1/discover/"+algo+"?format=text", mustJSON(t, DiscoverRequest{CSV: csv}))
			if status != 200 || string(text) != want.Text() {
				t.Errorf("text response (status %d) diverges:\n%q\nwant\n%q", status, text, want.Text())
			}
		})
	}
}

func TestDiscoverPartialDeterministicAcrossWorkers(t *testing.T) {
	csv := hotelsCSV(t)
	_, ts := newTestServer(t, Config{Workers: 4})
	for _, algo := range Algorithms() {
		t.Run(algo, func(t *testing.T) {
			var bodies []string
			for _, workers := range []int{1, 4} {
				req := DiscoverRequest{CSV: csv}
				req.Workers = workers
				req.MaxTasks = 2
				status, body := post(t, ts.URL+"/v1/discover/"+algo, mustJSON(t, req))
				if status != 200 {
					t.Fatalf("workers=%d status = %d\n%s", workers, status, body)
				}
				bodies = append(bodies, string(body))
			}
			if bodies[0] != bodies[1] {
				t.Errorf("budget-truncated response depends on worker count:\nworkers=1: %s\nworkers=4: %s",
					bodies[0], bodies[1])
			}
		})
	}
	// tane with a 2-task budget on this input is guaranteed truncated:
	// the partial marker must survive to the JSON.
	req := DiscoverRequest{CSV: csv}
	req.MaxTasks = 2
	status, body := post(t, ts.URL+"/v1/discover/tane", mustJSON(t, req))
	if status != 200 {
		t.Fatalf("status = %d\n%s", status, body)
	}
	var got discoverResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Partial || got.Reason != "max-tasks" {
		t.Errorf("partial = %v reason = %q, want true/max-tasks", got.Partial, got.Reason)
	}
}

func TestValidateAndRepairEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	status, body := post(t, ts.URL+"/v1/validate", mustJSON(t, ValidateRequest{CSV: smallCSV, FDs: "name->city"}))
	if status != 200 {
		t.Fatalf("validate status = %d\n%s", status, body)
	}
	var vr validateResponse
	if err := json.Unmarshal(body, &vr); err != nil {
		t.Fatal(err)
	}
	if vr.Rules != 1 || vr.Checked != 1 || vr.Partial {
		t.Errorf("validate header mismatch: %+v", vr)
	}
	if !strings.Contains(vr.Report, "g3 error:") {
		t.Errorf("report missing g3 line:\n%s", vr.Report)
	}

	status, body = post(t, ts.URL+"/v1/validate", mustJSON(t, ValidateRequest{CSV: smallCSV, FDs: "name->nosuch"}))
	if status != 400 || errCode(t, body) != "invalid_fd" {
		t.Errorf("bad FD: status %d code %s", status, errCode(t, body))
	}

	status, body = post(t, ts.URL+"/v1/repair", mustJSON(t, RepairRequest{CSV: smallCSV, FD: "name->city"}))
	if status != 200 {
		t.Fatalf("repair status = %d\n%s", status, body)
	}
	var rr repairResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if len(rr.Changes) == 0 || rr.Partial {
		t.Errorf("repair of a violated FD changed nothing: %+v", rr)
	}
	// The repaired instance must actually satisfy the FD.
	fixed, err := relation.ReadCSVAuto("fixed", []byte(rr.CSV), relation.Limits{})
	if err != nil {
		t.Fatalf("repaired CSV unreadable: %v", err)
	}
	f, err := ParseFD(fixed.Schema(), "name->city")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Holds(fixed) {
		t.Error("repaired instance still violates name->city")
	}

	status, body = post(t, ts.URL+"/v1/repair", mustJSON(t, RepairRequest{CSV: smallCSV, FD: "garbage"}))
	if status != 400 || errCode(t, body) != "invalid_fd" {
		t.Errorf("bad repair FD: status %d code %s", status, errCode(t, body))
	}
}

func TestAdmissionShedsWith429AndRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxConcurrency: 1, MaxQueue: 1})
	// Occupy the whole admission capacity directly, then queue one
	// request; the next concurrent one must shed fast with 429.
	if err := s.adm.acquire(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	body := mustJSON(t, DiscoverRequest{CSV: smallCSV})
	queued := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/discover/tane", "application/json", strings.NewReader(body))
		if err == nil {
			queued <- resp
		}
	}()
	waitQueued(t, s.adm, 1)

	resp, err := http.Post(ts.URL+"/v1/discover/tane", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	shed, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed status = %d, want 429\n%s", resp.StatusCode, shed)
	}
	if code := errCode(t, shed); code != "saturated" {
		t.Errorf("shed code = %q, want saturated", code)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 missing Retry-After header")
	}

	s.adm.release(1)
	r2 := <-queued
	b2, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if r2.StatusCode != 200 {
		t.Errorf("queued request after release = %d\n%s", r2.StatusCode, b2)
	}
}

func TestEnginePanicTripsBreaker(t *testing.T) {
	clk := &fakeClock{t: time.Unix(2000, 0)}
	_, ts := newTestServer(t, Config{
		Workers: 2, BreakerThreshold: 2, BreakerBackoff: time.Second,
		breakerNow: clk.now, breakerJitter: identityJitter,
	})
	body := mustJSON(t, DiscoverRequest{CSV: smallCSV})

	restore := engine.SetTaskHook(func(p *engine.Pool, task int) { panic("injected") })
	for i := 0; i < 2; i++ {
		status, respBody := post(t, ts.URL+"/v1/discover/tane", body)
		if status != http.StatusInternalServerError || errCode(t, respBody) != "engine_panic" {
			t.Fatalf("panic run %d: status %d code %s", i, status, errCode(t, respBody))
		}
	}
	restore()

	// Threshold reached: the breaker is open, requests fail fast with a
	// Retry-After even though the engine is healthy again.
	resp, err := http.Post(ts.URL+"/v1/discover/tane", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || errCode(t, rb) != "breaker_open" {
		t.Fatalf("open breaker: status %d code %s", resp.StatusCode, errCode(t, rb))
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("breaker 503 missing Retry-After header")
	}

	// Other endpoints are unaffected: breakers are per-endpoint.
	if status, _ := post(t, ts.URL+"/v1/discover/cords", body); status != 200 {
		t.Errorf("cords while tane breaker open = %d, want 200", status)
	}

	// After the backoff the half-open probe runs for real and closes the
	// breaker.
	clk.advance(2 * time.Second)
	if status, rb := post(t, ts.URL+"/v1/discover/tane", body); status != 200 {
		t.Fatalf("probe after backoff = %d\n%s", status, rb)
	}
	if status, _ := post(t, ts.URL+"/v1/discover/tane", body); status != 200 {
		t.Errorf("request after recovery = %d, want 200", status)
	}
}

func TestClientBudgetPartialIsNotABreakerFault(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, BreakerThreshold: 1})
	csv := hotelsCSV(t)
	// A client-requested task budget truncates the run: 200 partial:true,
	// and the breaker must stay closed even at threshold 1.
	req := DiscoverRequest{CSV: csv}
	req.MaxTasks = 2
	for i := 0; i < 3; i++ {
		status, body := post(t, ts.URL+"/v1/discover/tane", mustJSON(t, req))
		if status != 200 {
			t.Fatalf("partial run %d: status %d\n%s", i, status, body)
		}
	}
	if st := s.endpoints["discover.tane"].br.snapshotState(); st != breakerClosed {
		t.Errorf("breaker state after client-budget partials = %v, want closed", st)
	}
}

func TestDrainingRejectsNewWork(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	s.BeginDrain()
	status, body := post(t, ts.URL+"/v1/discover/tane", mustJSON(t, DiscoverRequest{CSV: smallCSV}))
	if status != http.StatusServiceUnavailable || errCode(t, body) != "draining" {
		t.Errorf("draining POST: status %d code %s", status, errCode(t, body))
	}
}

func TestMetricsEndpointExposesServerSeries(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	post(t, ts.URL+"/v1/discover/tane", mustJSON(t, DiscoverRequest{CSV: smallCSV}))
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"deptree_server_discover_tane_requests_total 1",
		"deptree_server_admission_capacity",
		"deptree_server_discover_tane_breaker_trips_total 0",
		"deptree_server_inflight 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestRunServesAndDrains(t *testing.T) {
	s := New(Config{Workers: 2, DrainGrace: 50 * time.Millisecond, DrainTimeout: 2 * time.Second, Obs: obs.New()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.Run(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// Wait for the listener to answer.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never came up: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status, _ := post(t, base+"/v1/discover/tane", mustJSON(t, DiscoverRequest{CSV: smallCSV})); status != 200 {
		t.Fatalf("pre-drain request = %d", status)
	}

	cancel()
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("Run returned %v, want nil after clean drain", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after ctx cancellation")
	}
	if !s.Draining() {
		t.Error("server not marked draining after Run returned")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Error("listener still answering after drain completed")
	}
}

// TestMalformedBodyCountsRequestAndError: every POST route counts a
// request on entry, so a body rejected before the run still moves
// server.<endpoint>.requests together with .errors — by exactly one.
func TestMalformedBodyCountsRequestAndError(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	type route struct{ path, ep string } // ep names the metric series
	routes := []route{{"/v1/validate", "validate"}, {"/v1/repair", "repair"}, {"/v1/jobs", "jobs"}}
	for _, a := range Algorithms() {
		routes = append(routes, route{"/v1/discover/" + a, "discover." + a})
	}
	for _, ep := range streamEndpoints() {
		routes = append(routes, route{"/v1/stream/" + strings.TrimPrefix(ep, "stream."), ep})
	}
	for _, rt := range routes {
		path, ep := rt.path, rt.ep
		t.Run(ep, func(t *testing.T) {
			requests := s.reg.Counter("server." + ep + ".requests")
			errs := s.reg.Counter("server." + ep + ".errors")
			r0, e0 := requests.Value(), errs.Value()
			status, body := post(t, ts.URL+path, "{")
			if status != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400\n%s", status, body)
			}
			if got := requests.Value() - r0; got != 1 {
				t.Errorf("requests moved by %d, want 1", got)
			}
			if got := errs.Value() - e0; got != 1 {
				t.Errorf("errors moved by %d, want 1", got)
			}
		})
	}
}
