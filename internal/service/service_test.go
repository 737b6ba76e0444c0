package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"jellyfish"
)

// mustNew builds a Server, failing the test on a construction error
// (which only a corrupt or unwritable state dir can produce).
func mustNew(tb testing.TB, opt Options) *Server {
	tb.Helper()
	srv, err := New(opt)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// newTestServer starts a service plus an HTTP front; both are torn down
// with the test.
func newTestServer(t *testing.T, opt Options) (*httptest.Server, *Server) {
	t.Helper()
	srv := mustNew(t, opt)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, srv
}

func doGet(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, body
}

func doPost(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp.StatusCode, b
}

func mustPost(t *testing.T, url, body string) []byte {
	t.Helper()
	status, b := doPost(t, url, body)
	if status != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, status, b)
	}
	return b
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 1})
	status, body := doGet(t, ts.URL+"/healthz")
	if status != http.StatusOK || string(body) != `{"status":"ok"}` {
		t.Fatalf("healthz: status %d body %q", status, body)
	}
}

func TestDesignEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 2})
	body := mustPost(t, ts.URL+"/v1/design",
		`{"switches":20,"ports":8,"networkDegree":5,"seed":1}`)
	var resp DesignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding design response: %v", err)
	}
	if resp.Switches != 20 || resp.Servers != 20*3 {
		t.Fatalf("design: %d switches, %d servers", resp.Switches, resp.Servers)
	}
	if resp.Links != 20*5/2 {
		t.Fatalf("design links = %d, want %d", resp.Links, 20*5/2)
	}
	if resp.Diameter <= 0 || resp.MeanPath <= 1 {
		t.Fatalf("degenerate path stats: diameter %d, mean %v", resp.Diameter, resp.MeanPath)
	}
	// The returned blueprint must round-trip through the library and
	// describe the same deterministic construction.
	top, err := jellyfish.ReadBlueprint(bytes.NewReader(resp.Blueprint))
	if err != nil {
		t.Fatalf("returned blueprint does not parse: %v", err)
	}
	want := jellyfish.New(jellyfish.Config{Switches: 20, Ports: 8, NetworkDegree: 5, Seed: 1})
	if top.NumLinks() != want.NumLinks() || top.NumServers() != want.NumServers() {
		t.Fatal("blueprint differs from the library's construction")
	}
}

func TestEvaluateMatchesLibrary(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 2})
	body := mustPost(t, ts.URL+"/v1/evaluate",
		`{"topology":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":3}},"seed":7,"trials":2}`)
	var resp EvaluateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Throughputs) != 2 {
		t.Fatalf("got %d throughputs, want 2", len(resp.Throughputs))
	}
	top := jellyfish.New(jellyfish.Config{Switches: 20, Ports: 8, NetworkDegree: 5, Seed: 3})
	for i, lam := range resp.Throughputs {
		if want := jellyfish.OptimalThroughput(top, 7+uint64(i), 1); lam != want {
			t.Fatalf("trial %d: service %v != library %v", i, lam, want)
		}
	}
	if resp.Min != min(resp.Throughputs[0], resp.Throughputs[1]) {
		t.Fatalf("min %v inconsistent with %v", resp.Min, resp.Throughputs)
	}
}

// The evaluate endpoint accepts the blueprint produced by /v1/design and
// scores the identical topology.
func TestEvaluateAcceptsBlueprint(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 2})
	design := mustPost(t, ts.URL+"/v1/design",
		`{"switches":16,"ports":8,"networkDegree":5,"seed":5}`)
	var dr DesignResponse
	if err := json.Unmarshal(design, &dr); err != nil {
		t.Fatal(err)
	}
	req := fmt.Sprintf(`{"topology":{"blueprint":%s},"seed":9}`, dr.Blueprint)
	viaBlueprint := mustPost(t, ts.URL+"/v1/evaluate", req)
	viaDesign := mustPost(t, ts.URL+"/v1/evaluate",
		`{"topology":{"design":{"switches":16,"ports":8,"networkDegree":5,"seed":5}},"seed":9}`)
	var a, b EvaluateResponse
	if err := json.Unmarshal(viaBlueprint, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(viaDesign, &b); err != nil {
		t.Fatal(err)
	}
	if a.Throughputs[0] != b.Throughputs[0] {
		t.Fatalf("blueprint evaluation %v != design evaluation %v", a.Throughputs[0], b.Throughputs[0])
	}
}

// Inline blueprints that differ only in whitespace share a plan key: the
// indented file form misses, and the compact form of the same document
// is then a response-tier hit with the same bytes.
func TestBlueprintWhitespaceSharesResponse(t *testing.T) {
	ts, srv := newTestServer(t, Options{Workers: 2})
	top := jellyfish.New(jellyfish.Config{Switches: 12, Ports: 6, NetworkDegree: 4, Seed: 2})
	var indented, compact bytes.Buffer
	if err := jellyfish.WriteBlueprint(top, &indented); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&compact, indented.Bytes()); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(indented.Bytes(), compact.Bytes()) {
		t.Fatal("the two blueprint forms are the same bytes")
	}
	first := mustPost(t, ts.URL+"/v1/evaluate", fmt.Sprintf(`{"topology":{"blueprint":%s},"seed":4}`, indented.Bytes()))
	hits, misses := tierHits(srv, tierResp), tierMisses(srv, tierResp)
	second := mustPost(t, ts.URL+"/v1/evaluate", fmt.Sprintf(`{"topology": {"blueprint": %s}, "seed": 4}`, compact.Bytes()))
	if !bytes.Equal(first, second) {
		t.Fatalf("whitespace changed the response:\n%s\n%s", first, second)
	}
	if h, m := tierHits(srv, tierResp)-hits, tierMisses(srv, tierResp)-misses; h != 1 || m != 0 {
		t.Fatalf("second request counted %d response-tier hits and %d misses, want 1 and 0", h, m)
	}
}

// A bad inline blueprint's 400 carries the blueprint decoder's error
// text verbatim, on every route that accepts one.
func TestBlueprintErrorMessages(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 1})
	design := `{"design":{"switches":4,"ports":4,"networkDegree":2,"seed":1}}`
	cases := []struct{ path, body, msg string }{
		{"/v1/evaluate", `{"topology":{"blueprint":{"ports":"x"}},"seed":1}`,
			"topology: decoding blueprint: json: cannot unmarshal string into Go struct field blueprint.ports of type []int"},
		{"/v1/evaluate", `{"topology":{"blueprint":{"ports":[4,4],"servers":[1,1],"links":[[0,1],[0,2]]}},"seed":1}`,
			"topology: blueprint link 1 (0,2) out of range [0,2)"},
		{"/v1/whatif", `{"base":{"blueprint":{"ports":[1.5],"servers":[1],"links":[]}},"seed":1,"scenarios":[]}`,
			"topology: decoding blueprint: json: cannot unmarshal number 1.5 into Go struct field blueprint.ports of type int"},
		{"/v1/rewire-plan", `{"before":` + design + `,"after":{"blueprint":{"ports":[4,4],"servers":[1,1],"links":[[1,1]]}}}`,
			"topology: blueprint link 0 is a self-loop at 1"},
	}
	for _, tc := range cases {
		status, body := doPost(t, ts.URL+tc.path, tc.body)
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == nil {
			t.Fatalf("%s %s: status %d, unparseable error body %s", tc.path, tc.body, status, body)
		}
		if status != http.StatusBadRequest || eb.Error.Code != "invalid_blueprint" || eb.Error.Message != tc.msg {
			t.Errorf("%s %s: status %d code %q message %q, want 400 invalid_blueprint %q",
				tc.path, tc.body, status, eb.Error.Code, eb.Error.Message, tc.msg)
		}
	}
}

func TestCapacitySearchMatchesLibrary(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 2})
	body := mustPost(t, ts.URL+"/v1/capacity-search",
		`{"switches":10,"ports":4,"trials":1,"seed":11}`)
	var resp CapacitySearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want, err := jellyfish.CapacitySearch{Switches: 10, Ports: 4, Trials: 1, Seed: 11, Workers: 1}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if resp.MaxServers != want {
		t.Fatalf("service maxServers %d != library %d", resp.MaxServers, want)
	}
}

func TestWhatIfEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 2})
	body := mustPost(t, ts.URL+"/v1/whatif", `{
		"base":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":13}},
		"seed":17,
		"scenarios":[
			{"failLinks":{"fraction":0.1,"seed":1}},
			{"expand":{"switches":2,"ports":8,"networkDegree":5,"seed":2}}
		]}`)
	var resp WhatIfResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Steps) != 3 {
		t.Fatalf("got %d steps, want 3 (base + 2 scenarios)", len(resp.Steps))
	}
	if resp.Steps[0].Description != "base" || resp.Steps[0].Switches != 20 {
		t.Fatalf("bad base step: %+v", resp.Steps[0])
	}
	if resp.Steps[2].Switches != 22 {
		t.Fatalf("expansion step has %d switches, want 22", resp.Steps[2].Switches)
	}
	for i, st := range resp.Steps {
		if st.Throughput <= 0 || st.Throughput > 1 {
			t.Fatalf("step %d throughput %v outside (0,1]", i, st.Throughput)
		}
	}
	if resp.Steps[1].Links >= resp.Steps[0].Links {
		t.Fatalf("failLinks step did not remove links: %d -> %d", resp.Steps[0].Links, resp.Steps[1].Links)
	}
}

// TestWhatIfMiswireScenario pins the §6.1 story as a what-if: endpoint
// swaps preserve every degree (so switch, server, and link counts are
// unchanged), and a Jellyfish with a few crossed cables is still just a
// random graph, so throughput stays in the base's neighborhood.
func TestWhatIfMiswireScenario(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 2})
	body := mustPost(t, ts.URL+"/v1/whatif", `{
		"base":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":13}},
		"seed":17,
		"scenarios":[{"miswire":{"count":3,"seed":7}}]}`)
	var resp WhatIfResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Steps) != 2 {
		t.Fatalf("got %d steps, want 2 (base + miswire)", len(resp.Steps))
	}
	base, mis := resp.Steps[0], resp.Steps[1]
	if !strings.Contains(mis.Description, "miswire(count=3, seed=7)") {
		t.Fatalf("miswire step description = %q", mis.Description)
	}
	if mis.Switches != base.Switches || mis.Servers != base.Servers || mis.Links != base.Links {
		t.Fatalf("miswiring changed counts: base %+v -> %+v", base, mis)
	}
	if mis.Throughput <= 0 || mis.Throughput > 1 {
		t.Fatalf("miswire throughput %v outside (0,1]", mis.Throughput)
	}
	if mis.Throughput < 0.75*base.Throughput {
		t.Fatalf("miswired throughput %v collapsed versus base %v; a few swapped cables should leave a random graph random", mis.Throughput, base.Throughput)
	}
}

func TestRewireEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 2})
	before := jellyfish.New(jellyfish.Config{Switches: 20, Ports: 8, NetworkDegree: 5, Seed: 19})
	after := before.Clone()
	jellyfish.Expand(after, 2, 8, 5, 23)
	var beforeBP, afterBP bytes.Buffer
	if err := jellyfish.WriteBlueprint(before, &beforeBP); err != nil {
		t.Fatal(err)
	}
	if err := jellyfish.WriteBlueprint(after, &afterBP); err != nil {
		t.Fatal(err)
	}
	body := mustPost(t, ts.URL+"/v1/rewire-plan", fmt.Sprintf(
		`{"before":{"blueprint":%s},"after":{"blueprint":%s}}`, beforeBP.String(), afterBP.String()))
	var resp RewireResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	want := jellyfish.PlanRewiring(before, after)
	if resp.Moves != want.Moves() || len(resp.Add) != len(want.Add) || len(resp.Remove) != len(want.Remove) {
		t.Fatalf("service plan (%d moves) != library plan (%d moves)", resp.Moves, want.Moves())
	}
	if resp.Moves == 0 {
		t.Fatal("expansion produced no cable moves")
	}
}

// Every class of client mistake maps to a 400 with a machine-readable
// code — the typed-error plumbing from the library boundary outward.
func TestValidationErrors(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name, path, body, code string
	}{
		{"bad design", "/v1/design", `{"switches":0,"ports":8,"networkDegree":5,"seed":1}`, "invalid_config"},
		{"degree over ports", "/v1/design", `{"switches":10,"ports":4,"networkDegree":5,"seed":1}`, "invalid_config"},
		{"bad search ports", "/v1/capacity-search", `{"switches":10,"ports":1,"seed":1}`, "invalid_config"},
		{"negative trials", "/v1/capacity-search", `{"switches":10,"ports":4,"trials":-1,"seed":1}`, "invalid_config"},
		{"search coldStart", "/v1/capacity-search", `{"switches":10,"ports":4,"seed":1,"coldStart":true}`, "invalid_json"},
		{"evaluate no topology", "/v1/evaluate", `{"seed":1}`, "invalid_topology"},
		{"evaluate both topologies", "/v1/evaluate", `{"topology":{"design":{"switches":4,"ports":4,"networkDegree":2,"seed":1},"blueprint":{}},"seed":1}`, "invalid_topology"},
		{"bad blueprint", "/v1/evaluate", `{"topology":{"blueprint":{"ports":[4],"servers":[1,2]}},"seed":1}`, "invalid_blueprint"},
		{"empty blueprint", "/v1/evaluate", `{"topology":{"blueprint":{}},"seed":1}`, "invalid_blueprint"},
		{"null blueprint", "/v1/evaluate", `{"topology":{"blueprint":null},"seed":1}`, "invalid_blueprint"},
		{"empty blueprint rewire", "/v1/rewire-plan", `{"before":{"blueprint":{}},"after":{"design":{"switches":4,"ports":4,"networkDegree":2,"seed":1}}}`, "invalid_blueprint"},
		{"serverless design evaluate", "/v1/evaluate", `{"topology":{"design":{"switches":6,"ports":4,"networkDegree":4,"seed":1}},"seed":1}`, "invalid_topology"},
		{"serverless base whatif", "/v1/whatif", `{"base":{"design":{"switches":6,"ports":4,"networkDegree":4,"seed":1}},"seed":1,"scenarios":[]}`, "invalid_topology"},
		{"unknown field", "/v1/evaluate", `{"topology":{"design":{"switches":4,"ports":4,"networkDegree":2,"seed":1}},"trails":3}`, "invalid_json"},
		{"malformed json", "/v1/evaluate", `{"topology":`, "invalid_json"},
		{"bad scenario", "/v1/whatif", `{"base":{"design":{"switches":10,"ports":4,"networkDegree":2,"seed":1}},"scenarios":[{}]}`, "invalid_scenario"},
		{"two-op scenario", "/v1/whatif", `{"base":{"design":{"switches":10,"ports":4,"networkDegree":2,"seed":1}},"scenarios":[{"failLinks":{"fraction":0.1,"seed":1},"failSwitches":{"fraction":0.1,"seed":1}}]}`, "invalid_scenario"},
		{"zero-count miswire", "/v1/whatif", `{"base":{"design":{"switches":10,"ports":4,"networkDegree":2,"seed":1}},"scenarios":[{"miswire":{"count":0,"seed":7}}]}`, "invalid_scenario"},
		{"unknown job type", "/v1/jobs", `{"type":"frobnicate","request":{}}`, "unknown_job_type"},
	}
	for _, tc := range cases {
		status, body := doPost(t, ts.URL+tc.path, tc.body)
		if status != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400 (body %s)", tc.name, status, body)
		}
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == nil {
			t.Fatalf("%s: unparseable error body %s", tc.name, body)
		}
		if eb.Error.Code != tc.code {
			t.Fatalf("%s: code %q, want %q (message: %s)", tc.name, eb.Error.Code, tc.code, eb.Error.Message)
		}
	}
}

// Anything but whitespace after the request document is rejected, stray
// closing delimiters included, on sync routes and job submissions alike;
// trailing whitespace is not.
func TestTrailingDataRejected(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 1})
	design := `{"switches":6,"ports":4,"networkDegree":2,"seed":1}`
	job := `{"type":"design","request":` + design + `}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/design", design + `]`},
		{"/v1/design", design + `}`},
		{"/v1/design", design + " \n x"},
		{"/v1/design", design + design},
		{"/v1/jobs", job + `]`},
		{"/v1/jobs", job + "\t}"},
		{"/v1/jobs", job + job},
	} {
		status, body := doPost(t, ts.URL+tc.path, tc.body)
		var eb errorBody
		if err := json.Unmarshal(body, &eb); err != nil || eb.Error == nil || status != http.StatusBadRequest ||
			eb.Error.Code != "invalid_json" || eb.Error.Message != "trailing data after request document" {
			t.Errorf("POST %s %q: status %d body %s, want 400 invalid_json trailing data", tc.path, tc.body, status, body)
		}
	}
	mustPost(t, ts.URL+"/v1/design", design+" \r\n\t ")
	if status, body := doPost(t, ts.URL+"/v1/jobs", job+"\n"); status != http.StatusAccepted {
		t.Fatalf("job with trailing newline: status %d body %s", status, body)
	}
}

// tierHits and tierMisses read one cache tier's counters: the shared
// response tier's, or a warm tier's summed across the shard workers.
func tierHits(srv *Server, tier int) int64 {
	if tier == tierResp {
		return srv.tele.respHits.Value()
	}
	var n int64
	for _, w := range srv.sched.workers {
		n += w.tele.hits[tier].Value()
	}
	return n
}

func tierMisses(srv *Server, tier int) int64 {
	if tier == tierResp {
		return srv.tele.respMisses.Value()
	}
	var n int64
	for _, w := range srv.sched.workers {
		n += w.tele.misses[tier].Value()
	}
	return n
}

// waitJob follows the job's event stream to its done frame — sent only
// once the job is terminal — and returns the job's final view.
func waitJob(t *testing.T, base, id string) JobView {
	t.Helper()
	client := http.Client{Timeout: 60 * time.Second}
	resp, err := client.Get(base + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("following job %s: %v", id, err)
	}
	stream, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(stream, []byte("event: done\n")) {
		t.Fatalf("job %s events: status %d, err %v, no done frame in %q", id, resp.StatusCode, err, stream)
	}
	status, body := doGet(t, base+"/v1/jobs/"+id)
	if status != http.StatusOK {
		t.Fatalf("job get: status %d: %s", status, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// A job's result must be byte-identical to the sync endpoint's response
// for the same request — one scheduler, one canonical digest, one answer.
func TestJobLifecycleAndResultBytes(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 2})
	req := `{"topology":{"design":{"switches":16,"ports":8,"networkDegree":5,"seed":29}},"seed":31,"trials":1}`
	syncBytes := mustPost(t, ts.URL+"/v1/evaluate", req)

	status, body := doPost(t, ts.URL+"/v1/jobs", `{"type":"evaluate","request":`+req+`}`)
	if status != http.StatusAccepted {
		t.Fatalf("job submit: status %d: %s", status, body)
	}
	var submitted JobView
	if err := json.Unmarshal(body, &submitted); err != nil {
		t.Fatal(err)
	}
	if submitted.ID == "" || (submitted.Status != jobQueued && submitted.Status != jobRunning) {
		t.Fatalf("bad submit view: %+v", submitted)
	}
	final := waitJob(t, ts.URL, submitted.ID)
	if final.Status != jobSucceeded {
		t.Fatalf("job status %s (error %+v)", final.Status, final.Error)
	}
	if !bytes.Equal(final.Result, syncBytes) {
		t.Fatalf("job result differs from sync response:\njob:  %s\nsync: %s", final.Result, syncBytes)
	}

	// The list endpoint reports the job (without the result payload).
	status, body = doGet(t, ts.URL+"/v1/jobs")
	if status != http.StatusOK || !strings.Contains(string(body), submitted.ID) {
		t.Fatalf("job list missing %s: %s", submitted.ID, body)
	}
	if status, _ := doGet(t, ts.URL+"/v1/jobs/nope"); status != http.StatusNotFound {
		t.Fatalf("unknown job: status %d, want 404", status)
	}
}

func TestJobCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("cancellation needs a search long enough to catch mid-run")
	}
	ts, _ := newTestServer(t, Options{Workers: 1})
	// A k=8-scale search takes ~1s — plenty of trial-solve boundaries for
	// the interrupt to land on.
	status, body := doPost(t, ts.URL+"/v1/jobs",
		`{"type":"capacity-search","request":{"switches":125,"ports":8,"trials":3,"seed":37}}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d: %s", status, body)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if status, _ = doPost(t, ts.URL+"/v1/jobs/"+v.ID+"/cancel", ""); status != http.StatusOK {
		t.Fatalf("cancel: status %d", status)
	}
	final := waitJob(t, ts.URL, v.ID)
	if final.Status != jobCancelled {
		t.Fatalf("cancelled job finished as %s", final.Status)
	}
	if final.Result != nil {
		t.Fatal("cancelled job carries a result")
	}
}

// Identical in-flight requests must execute once: single-flight plus the
// response cache guarantee one solver execution no matter how many
// clients ask, and every client gets the same bytes.
func TestSingleFlightExecutesOnce(t *testing.T) {
	ts, srv := newTestServer(t, Options{Workers: 2})
	req := `{"switches":15,"ports":5,"trials":1,"seed":41}`
	const clients = 8
	results := make(chan []byte, clients)
	for i := 0; i < clients; i++ {
		go func() {
			results <- mustPost(t, ts.URL+"/v1/capacity-search", req)
		}()
	}
	first := <-results
	for i := 1; i < clients; i++ {
		if got := <-results; !bytes.Equal(got, first) {
			t.Fatalf("client %d got different bytes", i)
		}
	}
	if misses := tierMisses(srv, tierResp); misses != 1 {
		t.Fatalf("%d executions for %d identical requests, want exactly 1", misses, clients)
	}
	if hits := tierHits(srv, tierResp) + srv.tele.deduped.Value(); hits != clients-1 {
		t.Fatalf("hits+deduped = %d, want %d", hits, clients-1)
	}
}

// A panicking executor must fail its one request with a 500, not take
// down the shard goroutine (and with it the daemon): the next request on
// the same worker must still be served.
func TestExecutorPanicConfinedToRequest(t *testing.T) {
	_, srv := newTestServer(t, Options{Workers: 1})
	boom := &plan{family: "f", key: "boom", run: func(ctx context.Context, w *worker) (any, error) {
		panic("boom")
	}}
	_, _, err := srv.sched.do(context.Background(), boom, true, nil, nil)
	var aerr *apiError
	if !errors.As(err, &aerr) || aerr.Status != http.StatusInternalServerError ||
		!strings.Contains(aerr.Message, "executor panic: boom") {
		t.Fatalf("panicking executor returned %v, want a 500 apiError wrapping the panic", err)
	}
	ok := &plan{family: "f", key: "after", run: func(ctx context.Context, w *worker) (any, error) {
		return "alive", nil
	}}
	resp, _, err := srv.sched.do(context.Background(), ok, true, nil, nil)
	if err != nil || string(resp) != `"alive"` {
		t.Fatalf("worker did not survive the panic: resp %s, err %v", resp, err)
	}
}

// The job store is bounded: past the cap, submissions evict the oldest
// finished job, and when every retained job is still queued or running
// they are rejected with 429 instead of growing without bound.
func TestJobStoreBounded(t *testing.T) {
	ts, srv := newTestServer(t, Options{Workers: 1})
	srv.jobs.cap = 1

	// Park the single shard worker so a submitted job stays queued.
	release := make(chan struct{})
	blocked := &plan{family: "x", key: "block", run: func(ctx context.Context, w *worker) (any, error) {
		<-release
		return "done", nil
	}}
	go srv.sched.do(context.Background(), blocked, false, nil, nil)

	jobReq := `{"type":"evaluate","request":{"topology":{"design":{"switches":4,"ports":4,"networkDegree":2,"seed":1}},"seed":1}}`
	status, body := doPost(t, ts.URL+"/v1/jobs", jobReq)
	if status != http.StatusAccepted {
		t.Fatalf("first submit: status %d: %s", status, body)
	}
	var first JobView
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatal(err)
	}

	// Store full, nothing finished: reject.
	status, body = doPost(t, ts.URL+"/v1/jobs", jobReq)
	if status != http.StatusTooManyRequests || !strings.Contains(string(body), "job_store_full") {
		t.Fatalf("submit over cap: status %d body %s, want 429 job_store_full", status, body)
	}

	close(release)
	if v := waitJob(t, ts.URL, first.ID); v.Status != jobSucceeded {
		t.Fatalf("first job: %s", v.Status)
	}

	// Now the finished job is evictable: the next submit takes its slot.
	status, body = doPost(t, ts.URL+"/v1/jobs", jobReq)
	if status != http.StatusAccepted {
		t.Fatalf("submit after finish: status %d: %s", status, body)
	}
	var second JobView
	if err := json.Unmarshal(body, &second); err != nil {
		t.Fatal(err)
	}
	// An evicted id answers 410 Gone with a typed error — distinguishable
	// from an id that never existed (404) — on every job route.
	for _, path := range []string{"", "/events", "/result"} {
		status, body := doGet(t, ts.URL+"/v1/jobs/"+first.ID+path)
		if status != http.StatusGone || !strings.Contains(string(body), "job_evicted") {
			t.Fatalf("evicted job GET %s: status %d body %s, want 410 job_evicted", path, status, body)
		}
	}
	if status, body := doGet(t, ts.URL+"/v1/jobs/j999999"); status != http.StatusNotFound || !strings.Contains(string(body), "unknown_job") {
		t.Fatalf("unknown job: status %d body %s, want 404 unknown_job", status, body)
	}
	if v := waitJob(t, ts.URL, second.ID); v.Status != jobSucceeded {
		t.Fatalf("second job: %s", v.Status)
	}
}

// readBody allocates as body bytes arrive, not from the declared length:
// a request that claims the full 16 MB and sends a few bytes costs a few
// bytes, not 16 MB, so headers alone cannot pin memory.
func TestReadBodyIgnoresDeclaredLength(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/evaluate", strings.NewReader(`{"switches":1}`))
	r.ContentLength = 16 << 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	body, aerr := readBody(r)
	runtime.ReadMemStats(&after)
	if aerr != nil || string(body) != `{"switches":1}` {
		t.Fatalf("readBody = %q, %v", body, aerr)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("reading a 14-byte body that declares 16 MB allocated %d bytes", n)
	}
}
