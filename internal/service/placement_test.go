package service

import (
	"context"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// A new family runs on an idle shard instead of queueing behind a busy
// one, and keeps that shard as its home once the pool is idle again.
func TestPlacementLeastLoadedThenSticky(t *testing.T) {
	ts, srv := newTestServer(t, Options{Workers: 2})
	first := `{"switches":12,"ports":4,"trials":1,"seed":53}`
	second := `{"switches":12,"ports":4,"trials":2,"seed":53}` // same family, new key
	p, aerr := planJob(&JobSpec{Type: "capacity-search", Request: []byte(first)})
	if aerr != nil {
		t.Fatal(aerr)
	}
	hashShard := srv.sched.shard(p.family)
	other := 1 - hashShard

	// Park a family that hashes to the same shard. Placed on an idle
	// pool, it ties and lands on its hash shard.
	park := "park"
	for i := 0; srv.sched.shard(park) != hashShard; i++ {
		park = "park" + strconv.Itoa(i)
	}
	running, release, parked := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(parked)
		srv.sched.do(context.Background(), &plan{family: park, key: park, op: "design", run: func(ctx context.Context, w *worker) (any, error) {
			close(running)
			<-release
			return "parked", nil
		}}, false, nil, nil)
	}()
	<-running

	// The family's first request completes while its hash shard is held.
	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/capacity-search", "application/json", strings.NewReader(first))
		if err != nil {
			done <- 0
			return
		}
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	select {
	case status := <-done:
		if status != http.StatusOK {
			t.Fatalf("first search: status %d", status)
		}
	case <-time.After(time.Minute):
		close(release)
		t.Fatal("a new family queued behind the busy hash shard instead of the idle one")
	}
	famMisses := func(i int) int64 { return srv.sched.workers[i].tele.misses[tierFamily].Value() }
	famHits := func(i int) int64 { return srv.sched.workers[i].tele.hits[tierFamily].Value() }
	if famMisses(other) != 1 || famMisses(hashShard) != 0 {
		t.Fatalf("family misses: worker %d %d, worker %d %d; want the first search on the idle worker %d",
			other, famMisses(other), hashShard, famMisses(hashShard), other)
	}

	// With the pool idle again a tie would pick the hash shard; the
	// family's home wins instead, so its warm family is reused.
	close(release)
	<-parked
	mustPost(t, ts.URL+"/v1/capacity-search", second)
	if famHits(other) != 1 || famMisses(hashShard) != 0 {
		t.Fatalf("family hits on home worker %d = %d, misses on hash worker %d = %d; want the second search at home",
			other, famHits(other), hashShard, famMisses(hashShard))
	}

	_, body := doGet(t, ts.URL+"/metrics")
	for placement, want := range map[string]float64{"hash": 1, "least_loaded": 1} {
		series := `jellyfishd_scheduler_placements_total{placement="` + placement + `"}`
		if v, ok := metricValue(string(body), series); !ok || v != want {
			t.Errorf("%s = %v (present %v), want %v", series, v, ok, want)
		}
	}
}
