package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A client speaks to one daemon over at most conns connections.
type client struct {
	hc    *http.Client
	base  string
	conns int
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base, conns: conns}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) call(method, path string, body io.Reader) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, b)
	}
	return b, nil
}

func (c *client) post(path string, body [][]byte) ([]byte, error) {
	rs := make([]io.Reader, len(body))
	for i, p := range body {
		rs[i] = bytes.NewReader(p)
	}
	return c.call(http.MethodPost, path, io.MultiReader(rs...))
}

// do runs one request to its answer: the response bytes of a sync
// request, or a durable job's result document after its event stream
// reached the terminal frame and its status read "succeeded".
func (c *client) do(r *request) ([]byte, error) {
	if r.path != "" {
		return c.post(r.path, r.body)
	}
	body := append([][]byte{[]byte(`{"type":"` + r.job + `","request":`)}, r.body...)
	b, err := c.post("/v1/jobs", append(body, []byte("}")))
	if err != nil {
		return nil, err
	}
	var sub struct{ ID string }
	if err := json.Unmarshal(b, &sub); err != nil || sub.ID == "" {
		return nil, fmt.Errorf("job submit: bad acknowledgement %.200s", b)
	}
	if err := c.follow(sub.ID); err != nil {
		return nil, err
	}
	b, err = c.call(http.MethodGet, "/v1/jobs/"+sub.ID, nil)
	if err != nil {
		return nil, err
	}
	var view struct{ Status string }
	if err := json.Unmarshal(b, &view); err != nil || view.Status != "succeeded" {
		return nil, fmt.Errorf("job %s: status %q", sub.ID, view.Status)
	}
	return c.call(http.MethodGet, "/v1/jobs/"+sub.ID+"/result", nil)
}

// follow reads a job's SSE stream to its terminal "done" frame and
// checks that the job succeeded.
func (c *client) follow(id string) error {
	resp, err := c.hc.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("job %s events: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	done := false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: done" {
			done = true
			continue
		}
		if done {
			if data, ok := strings.CutPrefix(line, "data: "); ok {
				if !strings.Contains(data, `"succeeded"`) {
					return fmt.Errorf("job %s ended %s", id, data)
				}
				return nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("job %s: event stream ended without a done frame", id)
}

// An outcome is one measured op.
type outcome struct {
	req       int
	due, sent time.Duration // offsets from the phase start
	done      time.Duration
	digest    [32]byte
	err       error
	started   bool
}

func (o *outcome) latency() time.Duration { return o.done - o.due }

// drive runs the measured phase: one sender per connection takes ops in
// order. With
// a schedule (open loop) each op is due at its offset and a sender that
// is behind sends at once; without one (closed loop) each op is due
// when its sender takes it, and senders stop taking ops after dur.
func drive(c *client, w *workload, dur time.Duration) (outs []outcome, wall time.Duration) {
	outs = make([]outcome, len(w.ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(w.ops) {
					return
				}
				o := &outs[i]
				if w.at != nil {
					o.due = w.at[i]
					if d := o.due - time.Since(start); d > 0 {
						time.Sleep(d)
					}
				} else if o.due = time.Since(start); o.due >= dur {
					return
				}
				o.req, o.started = w.ops[i], true
				o.sent = time.Since(start)
				b, err := c.do(&w.reqs[o.req])
				o.done = time.Since(start)
				o.digest, o.err = sha256.Sum256(b), err
			}
		}()
	}
	wg.Wait()
	for _, o := range outs {
		if o.started {
			wall = max(wall, o.done)
		}
	}
	return outs, wall
}
