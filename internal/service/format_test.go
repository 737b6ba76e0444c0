package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jellyfish/internal/persist"
)

// The durable store's on-disk format, pinned byte for byte: existing
// state directories must keep replaying, so the journal records and the
// snapshot document are a compatibility surface, not an implementation
// detail. Timestamps are wall-clock, so the expected documents take them
// from the jobs' own views; everything else is literal.

const (
	formatEvalReq   = `{"topology":{"design":{"switches":8,"ports":4,"networkDegree":2,"seed":1}},"seed":1}`
	formatDesignReq = `{"switches":5,"ports":4,"networkDegree":3,"seed":1}`
)

// parkWorker occupies the single shard worker until release closes,
// returning once the parking task is actually executing, so anything
// submitted afterwards is queued behind it.
func parkWorker(t *testing.T, srv *Server, key string) (release chan struct{}) {
	t.Helper()
	release = make(chan struct{})
	running := make(chan struct{})
	p := &plan{family: "park", key: key, run: func(ctx context.Context, w *worker) (any, error) {
		close(running)
		<-release
		return "parked", nil
	}}
	go srv.sched.do(context.Background(), p, false, nil, nil) //jellyvet:allow determinism -- test harness goroutine
	<-running
	return release
}

// jobByID returns the live job behind id.
func jobByID(t *testing.T, srv *Server, id string) *job {
	t.Helper()
	j, aerr := srv.jobs.get(id)
	if aerr != nil {
		t.Fatalf("job %s: %v", id, aerr)
	}
	return j
}

func TestDurableFormatGolden(t *testing.T) {
	dir := t.TempDir()
	ts, srv := durableServer(t, dir, Options{Workers: 1, SnapshotEvery: 1000})
	srv.jobs.cap = 2

	// Job A succeeds with a result and one progress event.
	a := submitJob(t, ts.URL, `{"type":"evaluate","request":`+formatEvalReq+`}`)
	ja := jobByID(t, srv, a.ID)
	<-ja.done
	aView := ja.view(true)
	ja.mu.Lock()
	aEvents := make([]string, len(ja.events))
	for i, e := range ja.events {
		aEvents[i] = string(e)
	}
	ja.mu.Unlock()
	if aView.Status != jobSucceeded || len(aEvents) != 1 {
		t.Fatalf("job A: status %s, %d events", aView.Status, len(aEvents))
	}

	// Job B is cancelled by its client while queued: a done record with
	// an error, no start time, and no blobs.
	release := parkWorker(t, srv, "park-b")
	b := submitJob(t, ts.URL, `{"type":"design","request":`+formatDesignReq+`}`)
	if status, body := doPost(t, ts.URL+"/v1/jobs/"+b.ID+"/cancel", ""); status != 200 {
		t.Fatalf("cancel B: status %d: %s", status, body)
	}
	close(release)
	jb := jobByID(t, srv, b.ID)
	<-jb.done
	bView := jb.view(false)

	// Job C evicts A (the store holds two jobs) and stays queued.
	release = parkWorker(t, srv, "park-c")
	c := submitJob(t, ts.URL, `{"type":"design","request":`+formatDesignReq+`}`)
	jc := jobByID(t, srv, c.ID)

	records, _, err := persist.ReplayLog(filepath.Join(dir, "journal.log"))
	if err != nil {
		t.Fatal(err)
	}
	wantRecords := []string{
		`{"kind":"submit","id":"j000001","seq":1,"type":"evaluate","request":` + formatEvalReq + `,"created":"` + aView.Created + `"}`,
		`{"kind":"done","id":"j000001","status":"succeeded","started":"` + aView.Started + `","finished":"` + aView.Finished +
			`","resultDigest":"` + persist.Digest(aView.Result) + `","eventsDigest":"` + persist.Digest([]byte("["+strings.Join(aEvents, ",")+"]")) + `"}`,
		`{"kind":"submit","id":"j000002","seq":2,"type":"design","request":` + formatDesignReq + `,"created":"` + bView.Created + `"}`,
		`{"kind":"done","id":"j000002","status":"cancelled","finished":"` + bView.Finished + `","error":{"status":409,"code":"cancelled","message":"job cancelled"}}`,
		`{"kind":"evict","id":"j000001"}`,
		`{"kind":"submit","id":"j000003","seq":3,"type":"design","request":` + formatDesignReq + `,"created":"` + c.Created + `"}`,
	}
	if len(records) != len(wantRecords) {
		t.Fatalf("journal holds %d records, want %d:\n%s", len(records), len(wantRecords), records)
	}
	for i, want := range wantRecords {
		if string(records[i]) != want {
			t.Errorf("journal record %d:\n got  %s\n want %s", i, records[i], want)
		}
	}

	// Shut down with C still queued: it is interrupted, not finished, so
	// the final snapshot keeps it as a bare submission to re-run.
	go func() { //jellyvet:allow determinism -- test harness goroutine
		<-jc.runCtx.Done()
		close(release)
	}()
	ts.Close()
	srv.Close()
	snap, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	wantSnap := `{"seq":3,"evicted":["j000001"],"jobs":[` +
		`{"id":"j000002","seq":2,"type":"design","request":` + formatDesignReq + `,"created":"` + bView.Created +
		`","status":"cancelled","finished":"` + bView.Finished + `","error":{"status":409,"code":"cancelled","message":"job cancelled"}},` +
		`{"id":"j000003","seq":3,"type":"design","request":` + formatDesignReq + `,"created":"` + c.Created + `"}]}`
	if string(snap) != wantSnap {
		t.Fatalf("snapshot:\n got  %s\n want %s", snap, wantSnap)
	}

	// The pinned documents replay: B comes back exactly as it was.
	ts2, srv2 := durableServer(t, dir, Options{Workers: 1})
	defer func() { ts2.Close(); srv2.Close() }()
	_, body := doGet(t, ts2.URL+"/v1/jobs/"+b.ID)
	want, _ := json.Marshal(jb.view(true))
	if string(body) != string(want) {
		t.Fatalf("job B after replay:\n got  %s\n want %s", body, want)
	}
}
