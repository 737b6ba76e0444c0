package service

import (
	"encoding/json"
	"testing"

	"jellyfish/internal/persist"
)

// FuzzSnapshotDoc feeds arbitrary bytes to recovery as the snapshot
// document. Recovery must return an error or rebuild a store whose jobs
// have unique ids, one per distinct id in the document; it must never
// panic. The seed is a snapshot a daemon wrote, and the store it wrote
// it into serves the blobs that snapshot references. Unfinished jobs
// are relaunched onto a closed scheduler, so they fail at once instead
// of running.
func FuzzSnapshotDoc(f *testing.F) {
	dir := f.TempDir()
	srv, err := New(Options{Workers: 1, StateDir: dir, SnapshotEvery: 1})
	if err != nil {
		f.Fatal(err)
	}
	var spec JobSpec
	if err := json.Unmarshal([]byte(recoveryJobBody), &spec); err != nil {
		f.Fatal(err)
	}
	v, aerr := srv.jobs.submit(srv.sched, &spec)
	if aerr != nil {
		f.Fatal(aerr)
	}
	j, aerr := srv.jobs.get(v.ID)
	if aerr != nil {
		f.Fatal(aerr)
	}
	<-j.done
	srv.Close()

	store, state, err := persist.Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { store.Close() })
	if len(state.Snapshot) == 0 {
		f.Fatal("the daemon wrote no snapshot")
	}
	sched := newScheduler(1, 1, 6, &tele{})
	sched.close()
	recoverSnapshot := func(data []byte) ([]JobView, error) {
		js := newJobStore()
		js.tele = &tele{}
		js.store = store
		js.snapshotEvery = 1 << 30 // keep the seed's blobs: no compaction
		err := js.recoverJobs(sched, persist.RecoveredState{Snapshot: data})
		views := js.list()
		for _, v := range views {
			j, _ := js.get(v.ID)
			<-j.done
		}
		return views, err
	}
	if views, err := recoverSnapshot(state.Snapshot); err != nil || len(views) != 1 || views[0].Status != jobSucceeded {
		f.Fatalf("the daemon's own snapshot recovered to %+v, %v; want its one succeeded job", views, err)
	}
	f.Add(state.Snapshot)
	f.Add([]byte(`{"seq":2,"jobs":[{"id":"j000001","type":"design","request":{}},{"id":"j000001","type":"design","request":{}}]}`))
	f.Add([]byte(`{"seq":1,"evicted":["j000009"],"jobs":[{"id":"j000001","status":"succeeded","created":"x"}]}`))
	f.Add([]byte(outsideBlobSnapshot))

	f.Fuzz(func(t *testing.T, data []byte) {
		views, err := recoverSnapshot(data)
		if err != nil || len(data) == 0 {
			return
		}
		var doc snapshotDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("recovery accepted a snapshot json rejects: %v", err)
		}
		want := make(map[string]bool)
		for _, pj := range doc.Jobs {
			want[pj.ID] = true
		}
		seen := make(map[string]bool)
		for _, v := range views {
			if seen[v.ID] || !want[v.ID] {
				t.Fatalf("recovered job %q is a duplicate or not in the snapshot", v.ID)
			}
			seen[v.ID] = true
		}
		if len(seen) != len(want) {
			t.Fatalf("recovered %d jobs, the snapshot names %d", len(seen), len(want))
		}
	})
}
