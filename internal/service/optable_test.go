package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// Every op table entry serves the same bytes on its sync route and as a
// job of its type: both enter through the entry's planner.
func TestOpTableSyncMatchesJob(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 2})
	bodies := make(map[string]string, len(syncWorkloads))
	for _, wl := range syncWorkloads {
		bodies[wl.name] = wl.body
	}
	for _, o := range ops {
		body, ok := bodies[o.name]
		if !ok {
			t.Fatalf("op %q has no workload in syncWorkloads", o.name)
		}
		sync := mustPost(t, ts.URL+"/v1/"+o.name, body)
		v := submitJob(t, ts.URL, `{"type":"`+o.name+`","request":`+body+`}`)
		if got := waitJob(t, ts.URL, v.ID); got.Status != jobSucceeded {
			t.Fatalf("%s job: %s (error %+v)", o.name, got.Status, got.Error)
		}
		status, result := doGet(t, ts.URL+"/v1/jobs/"+v.ID+"/result")
		if status != http.StatusOK || !bytes.Equal(result, sync) {
			t.Errorf("%s: job result (status %d) differs from sync response:\n job  %s\n sync %s", o.name, status, result, sync)
		}
	}
}

// An unknown job type's error names exactly the op table's entries.
func TestUnknownJobTypeListsOps(t *testing.T) {
	ts, _ := newTestServer(t, Options{Workers: 1})
	status, body := doPost(t, ts.URL+"/v1/jobs", `{"type":"frobnicate","request":{}}`)
	var eb errorBody
	if err := json.Unmarshal(body, &eb); err != nil || status != http.StatusBadRequest || eb.Error == nil || eb.Error.Code != "unknown_job_type" {
		t.Fatalf("unknown job type: status %d body %s", status, body)
	}
	_, list, ok := strings.Cut(strings.TrimSuffix(eb.Error.Message, ")"), "(want ")
	if !ok {
		t.Fatalf("message lists no job types: %q", eb.Error.Message)
	}
	var listed []string
	for _, name := range strings.Split(list, ", ") {
		listed = append(listed, strings.TrimPrefix(name, "or "))
	}
	if len(listed) != len(ops) {
		t.Fatalf("message lists %v, op table has %d entries", listed, len(ops))
	}
	for i, o := range ops {
		if listed[i] != o.name {
			t.Errorf("message lists %v, want the op table's names in order (entry %d is %q)", listed, i, o.name)
		}
	}
}
