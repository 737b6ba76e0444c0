package main

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"sync"
	"time"
)

// runDaemonWorkload runs one daemon workload: pre-fill (hot), timed
// set-ups, the measured phase, answer checks and, in a traced run, the
// /metrics deltas and the in-process layer replay.
func runDaemonWorkload(cfg config, w *workload, rep *report) error {
	ws := workloadSpecs[w.name]
	bin := filepath.Join(cfg.bin, "jellyfishd")
	stateDir := filepath.Join(cfg.work, "state")
	flags := func(i int) []string {
		f := append([]string(nil), daemonFlags...)
		if !ws.stateDir {
			return f
		}
		dir := stateDir
		if w.prefill == nil {
			// Without a pre-filled store every set-up starts empty.
			dir = fmt.Sprintf("%s-%d", stateDir, i)
		}
		return append(f, "-state-dir", dir)
	}
	answers := newAnswers()

	if w.prefill != nil {
		if err := prefill(bin, flags(0), w); err != nil {
			return fmt.Errorf("pre-fill: %v", err)
		}
	}

	var p phase
	var d *daemon
	var c *client
	for i := range ws.setupReps {
		if d != nil {
			c.close()
			if err := d.stop(); err != nil {
				return fmt.Errorf("stopping daemon after set-up: %v", err)
			}
		}
		t0 := time.Now()
		var err error
		if d, err = startDaemon(bin, flags(i)); err != nil {
			return err
		}
		c = newClient(d.base, ws.conns)
		for _, q := range w.warmup {
			b, err := c.do(&w.reqs[q])
			if err != nil {
				c.close()
				d.kill()
				return fmt.Errorf("warm-up request %d: %v", q, err)
			}
			answers.record(q, sha256.Sum256(b), rep)
		}
		p.setups = append(p.setups, time.Since(t0).Seconds())
	}
	defer func() {
		c.close()
		if d != nil {
			d.kill()
		}
	}()

	var err error
	if p.before, err = d.scrape(); err != nil {
		return err
	}
	cpu0, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	p.outs, p.wall = drive(c, w, time.Duration(cfg.seconds*float64(time.Second)))
	cpu1, err := procCPU(d.pid())
	if err != nil {
		return err
	}
	p.cpu = cpu1 - cpu0
	if p.rssMB, err = procHWM(d.pid()); err != nil {
		return err
	}
	if p.after, err = d.scrape(); err != nil {
		return err
	}
	rep.setE2EFromPhase(w, &p)
	lat, _ := p.latencies()
	rep.header = append(rep.header, fmt.Sprintf("samples: setups=%d (exec to first measured op) ops=%d", len(p.setups), len(lat)))

	for _, o := range p.outs {
		if o.started && o.err == nil {
			answers.record(o.req, o.digest, rep)
		}
	}
	checkAnswers(c, w, answers, rep)
	c.close()
	err = d.stop()
	d = nil
	if err != nil {
		return fmt.Errorf("stopping daemon: %v", err)
	}
	if cfg.trace {
		return traceDaemonWorkload(cfg, w, &p, answers, rep)
	}
	return nil
}

// answers holds the first answer digest of every request and checks
// every later answer against it: the daemon's answers are deterministic,
// so repeats of a request must be byte-identical.
type answers struct {
	mu     sync.Mutex
	digest map[int][32]byte
}

func newAnswers() *answers { return &answers{digest: map[int][32]byte{}} }

func (a *answers) record(req int, d [32]byte, rep *report) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if prev, ok := a.digest[req]; !ok {
		a.digest[req] = d
	} else if prev != d {
		rep.fail("request %d: answer differs from an earlier answer to the same request", req)
	}
}

func (a *answers) get(req int) ([32]byte, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	d, ok := a.digest[req]
	return d, ok
}

// prefill runs an untimed daemon on the workload's state dir, submits the
// pre-fill jobs over two connections, follows each to its result and
// stops the daemon, which snapshots on the way out.
func prefill(bin string, flags []string, w *workload) error {
	d, err := startDaemon(bin, flags)
	if err != nil {
		return err
	}
	c := newClient(d.base, 2)
	var wg sync.WaitGroup
	errs := make([]error, c.conns)
	for k := range c.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := k; i < len(w.prefill); i += c.conns {
				if _, err := c.do(&w.reqs[w.prefill[i]]); err != nil {
					errs[k] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	c.close()
	if err := d.stop(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
