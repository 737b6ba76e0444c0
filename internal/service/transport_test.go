package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// Transport evaluations must be deterministic across cache states: a warm
// server (same family evaluated repeatedly, "sim:" tier hits) and a cold
// one must return byte-identical responses, for every protocol/routing
// combination.
func TestEvaluateTransportWarmVsCold(t *testing.T) {
	warmURL, warmSrv := newTestServer(t, Options{Workers: 1})
	req := func(proto, routing string, seed uint64) string {
		return `{"topology":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":4}},` +
			`"seed":` + itoa(seed) + `,"trials":3,"transport":{"protocol":"` + proto + `","routing":"` + routing + `"}}`
	}
	combos := [][2]string{{"tcp1", "ecmp8"}, {"tcp8", "ecmp64"}, {"mptcp8", "ksp8"}, {"mptcp8", ""}}
	warm := make([][]byte, len(combos))
	for round := 0; round < 2; round++ { // second round hits the sim: tier
		for i, c := range combos {
			warm[i] = mustPost(t, warmURL.URL+"/v1/evaluate", req(c[0], c[1], 9))
		}
	}
	if tierHits(warmSrv, tierSim) < 1 {
		t.Fatal("repeated transport evaluations never hit the sim: tier")
	}
	coldURL, _ := newTestServer(t, Options{Workers: 4})
	for i, c := range combos {
		cold := mustPost(t, coldURL.URL+"/v1/evaluate", req(c[0], c[1], 9))
		if !bytes.Equal(warm[i], cold) {
			t.Fatalf("combo %v: warm %s != cold %s", c, warm[i], cold)
		}
	}
	// The transport plane must actually differ from the optimal solver.
	opt := mustPost(t, coldURL.URL+"/v1/evaluate",
		`{"topology":{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":4}},"seed":9,"trials":3}`)
	if bytes.Equal(opt, warm[2]) {
		t.Fatal("transport evaluation returned the optimal-routing bytes")
	}
}

func TestEvaluateTransportValidation(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 1})
	code, body := doPost(t, ts.URL+"/v1/evaluate",
		`{"topology":{"design":{"switches":5,"ports":4,"networkDegree":3,"seed":1}},"transport":{"protocol":"quic"}}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "quic") {
		t.Fatalf("bad protocol: code %d body %s", code, body)
	}
	code, body = doPost(t, ts.URL+"/v1/evaluate",
		`{"topology":{"design":{"switches":5,"ports":4,"networkDegree":3,"seed":1}},"transport":{"protocol":"tcp8","routing":"rip"}}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "rip") {
		t.Fatalf("bad routing: code %d body %s", code, body)
	}
}

// What-if chains with a transport spec: every step carries the transport
// column; chain checkpoints keyed by data plane must not leak between
// transport and non-transport requests; and a resumed (chain-hit)
// evaluation is byte-identical to a cold full replay.
func TestWhatIfTransportChain(t *testing.T) {
	base := `{"design":{"switches":20,"ports":8,"networkDegree":5,"seed":4}}`
	prefix := `{"base":` + base + `,"seed":3,"transport":{"protocol":"mptcp8"},"scenarios":[{"failLinks":{"fraction":0.05,"seed":1}}`
	full := prefix + `,{"failSwitches":{"fraction":0.1,"seed":2}}]}`

	warmURL, warmSrv := newTestServer(t, Options{Workers: 1})
	mustPost(t, warmURL.URL+"/v1/whatif", prefix+`]}`) // seeds the chain prefix
	got := mustPost(t, warmURL.URL+"/v1/whatif", full) // resumes it
	if tierHits(warmSrv, tierChain) < 1 {
		t.Fatal("extending a transport chain never hit a checkpoint")
	}
	coldURL, _ := newTestServer(t, Options{Workers: 2})
	cold := mustPost(t, coldURL.URL+"/v1/whatif", full)
	if !bytes.Equal(got, cold) {
		t.Fatalf("resumed chain differs from cold replay:\nwarm %s\ncold %s", got, cold)
	}

	var resp WhatIfResponse
	if err := json.Unmarshal(got, &resp); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(resp.Steps) != 3 {
		t.Fatalf("%d steps, want 3", len(resp.Steps))
	}
	for i, st := range resp.Steps {
		if st.TransportThroughput == nil {
			t.Fatalf("step %d missing transport throughput", i)
		}
		if *st.TransportThroughput < 0 || *st.TransportThroughput > 1 {
			t.Fatalf("step %d transport throughput %v outside [0,1]", i, *st.TransportThroughput)
		}
	}

	// The same chain without transport must not reuse those checkpoints'
	// steps (they embed the transport column) — and must omit the field.
	plain := mustPost(t, warmURL.URL+"/v1/whatif",
		`{"base":`+base+`,"seed":3,"scenarios":[{"failLinks":{"fraction":0.05,"seed":1}},{"failSwitches":{"fraction":0.1,"seed":2}}]}`)
	if bytes.Contains(plain, []byte("transportThroughput")) {
		t.Fatalf("non-transport chain leaked the transport column: %s", plain)
	}
}

// Admission control: with the sync limit saturated, planning endpoints
// shed load with 429 + Retry-After (and count it), the job API stays
// open, and releasing the limit restores service.
func TestSyncAdmissionControl(t *testing.T) {
	ts, srv := newTestServer(t, Options{Workers: 1, MaxSyncInflight: 1})
	design := `{"switches":5,"ports":4,"networkDegree":3,"seed":1}`

	// Occupy the single admission slot like an in-flight request would
	// (runSync acquires before scheduling, releases after writing).
	srv.syncSem <- struct{}{}
	resp, err := http.Post(ts.URL+"/v1/design", "application/json", strings.NewReader(design))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server returned %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	if srv.tele.syncRejected.Value() != 1 {
		t.Fatalf("syncRejected = %d, want 1", srv.tele.syncRejected.Value())
	}
	// The async job API is not admission-gated.
	code, _ := doPost(t, ts.URL+"/v1/jobs", `{"type":"design","request":`+design+`}`)
	if code != http.StatusAccepted {
		t.Fatalf("job submit under saturation returned %d, want 202", code)
	}
	<-srv.syncSem // release the slot
	code, _ = doPost(t, ts.URL+"/v1/design", design)
	if code != http.StatusOK {
		t.Fatalf("after release, design returned %d, want 200", code)
	}
}

// Under a concurrent overload burst, every request either succeeds or is
// cleanly rejected with 429 — admission never deadlocks or drops slots
// (each success/rejection accounted, and the server still serves after).
func TestSyncAdmissionUnderBurst(t *testing.T) {
	ts, srv := newTestServer(t, Options{Workers: 2, MaxSyncInflight: 2})
	design := `{"switches":10,"ports":6,"networkDegree":4,"seed":2}`
	const n = 16
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/design", "application/json", strings.NewReader(design))
			if err != nil {
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	ok, shed := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d", c)
		}
	}
	if ok == 0 {
		t.Fatal("burst: no request succeeded")
	}
	if int64(shed) != srv.tele.syncRejected.Value() {
		t.Fatalf("shed %d but counter says %d", shed, srv.tele.syncRejected.Value())
	}
	if code, _ := doPost(t, ts.URL+"/v1/design", design); code != http.StatusOK {
		t.Fatalf("after burst, design returned %d, want 200", code)
	}
}

func itoa(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
