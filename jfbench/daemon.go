package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clkTck is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat (100 on every mainstream Linux build).
const clkTck = 100

// A daemon is one running jellyfishd process.
type daemon struct {
	cmd  *exec.Cmd
	base string
	log  bytes.Buffer
}

// freeAddr returns a loopback address with a port that was free a moment ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs jellyfishd and returns once /healthz answers.
func startDaemon(bin string, flags []string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr}
	d.cmd = exec.Command(bin, append([]string{"-addr", addr}, flags...)...)
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	// The daemon dies with the harness even if the harness is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, err
	}
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("jellyfishd did not become healthy: %s", d.log.String())
}

// stop sends SIGTERM (the daemon drains and snapshots) and waits for
// the process; it kills it if the drain takes longer than 60 seconds.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("jellyfishd did not drain within 60s")
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// procCPU returns utime+stime of pid from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(string(b))
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line; the command name may contain spaces, so fields
// are counted from the closing parenthesis.
func parseStatCPU(stat string) (time.Duration, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	var ticks int64
	for _, s := range f[11:13] {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, err
		}
		ticks += n
	}
	return time.Duration(ticks) * time.Second / clkTck, nil
}

// procHWM returns the peak resident set (VmHWM) of pid in MB.
func procHWM(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseHWM(string(b))
}

func parseHWM(status string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("unexpected VmHWM line %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// A scrape is one /metrics exposition: series (name plus rendered
// labels, e.g. `jellyfishd_cache_hits_total{tier="resp",worker="0"}`)
// to value.
type scrape map[string]float64

func (d *daemon) scrape() (scrape, error) {
	resp, err := http.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics reads Prometheus text exposition, skipping comments.
func parseMetrics(r io.Reader) (scrape, error) {
	s := scrape{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %v", line, err)
		}
		s[line[:i]] = v
	}
	return s, sc.Err()
}

// delta returns after - before per series; a series absent before
// counts from 0. Bucket deltas need histQuantile, which knows the
// exposition's elision rule.
func delta(before, after scrape) scrape {
	d := scrape{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series of metric name whose labels contain all of the
// given `key="value"` pairs.
func (s scrape) sum(name string, labels ...string) float64 {
	t := 0.0
	for k, v := range s {
		series, lbl, _ := strings.Cut(k, "{")
		if series != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// histMean returns a histogram's mean observation in seconds.
func (s scrape) histMean(name string, labels ...string) float64 {
	return ratio(s.sum(name+"_sum", labels...), s.sum(name+"_count", labels...))
}

// histQuantile returns the upper bound, in seconds, of the bucket
// holding quantile q of the observations an unlabelled histogram gained
// between two scrapes (the daemon's buckets are powers of two, so this
// over-reports by at most 2x). The exposition elides buckets above the
// highest non-empty one; such a bucket's cumulative count is the total.
func histQuantile(before, after scrape, name string, q float64) float64 {
	count := after[name+"_count"] - before[name+"_count"]
	if count == 0 {
		return 0
	}
	best := -1.0
	for k, v := range after {
		le, ok := strings.CutPrefix(k, name+`_bucket{le="`)
		if !ok {
			continue
		}
		b, seen := before[k]
		if !seen {
			b = before[name+"_count"]
		}
		if v-b < q*count {
			continue
		}
		bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		if best < 0 || bound < best {
			best = bound
		}
	}
	return max(best, 0)
}
