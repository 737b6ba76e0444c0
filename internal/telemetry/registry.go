// The metric registry: fixed slots registered once at startup, exposed
// in Prometheus text format. Registration allocates; scraping walks the
// slots under a mutex that instrument writers never take (writers are
// pure atomics), so a scrape cannot stall a kernel.

package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

type metricKind uint8

const (
	counterKind metricKind = iota
	gaugeKind
	histogramKind
)

func (k metricKind) String() string {
	switch k {
	case counterKind:
		return "counter"
	case gaugeKind:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered series: a fixed instrument or a read-out
// function, with pre-rendered labels.
type metric struct {
	name   string
	help   string
	labels string // pre-rendered `worker="0",tier="resp"`, or ""
	kind   metricKind
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
	fn     func() int64
}

// A Registry holds the metric slots a /metrics endpoint exposes. All
// registration happens at server construction; WritePrometheus may be
// called concurrently with instrument writes.
type Registry struct {
	metrics []metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Labels renders a label set deterministically (sorted by key) for the
// registration calls, e.g. Labels("worker", "0", "tier", "resp").
// Panics on an odd pair count — registration is startup-time code.
func Labels(kv ...string) string {
	if len(kv)%2 != 0 {
		panic("telemetry.Labels: odd key/value count")
	}
	pairs := make([]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, fmt.Sprintf("%s=%q", kv[i], kv[i+1]))
	}
	sort.Strings(pairs)
	return strings.Join(pairs, ",")
}

// Counter registers and returns a counter series.
func (r *Registry) Counter(name, help, labels string) *Counter {
	c := &Counter{}
	r.metrics = append(r.metrics, metric{name: name, help: help, labels: labels, kind: counterKind, ctr: c})
	return c
}

// Gauge registers and returns a gauge series.
func (r *Registry) Gauge(name, help, labels string) *Gauge {
	g := &Gauge{}
	r.metrics = append(r.metrics, metric{name: name, help: help, labels: labels, kind: gaugeKind, gauge: g})
	return g
}

// Histogram registers and returns a latency histogram series (values
// observed in nanoseconds, exposed in seconds).
func (r *Registry) Histogram(name, help, labels string) *Histogram {
	h := &Histogram{}
	r.metrics = append(r.metrics, metric{name: name, help: help, labels: labels, kind: histogramKind, hist: h})
	return h
}

// CounterFunc registers a counter series backed by a read-out function
// — the bridge for counts that already live in non-telemetry atomics
// (the fault-injection fire count). fn is called at scrape time and must
// be safe for concurrent use and monotone.
func (r *Registry) CounterFunc(name, help, labels string, fn func() int64) {
	r.metrics = append(r.metrics, metric{name: name, help: help, labels: labels, kind: counterKind, fn: fn})
}

// GaugeFunc registers a gauge series backed by a read-out function
// (queue depths, cache sizes). Same safety contract as CounterFunc.
func (r *Registry) GaugeFunc(name, help, labels string, fn func() int64) {
	r.metrics = append(r.metrics, metric{name: name, help: help, labels: labels, kind: gaugeKind, fn: fn})
}

// WritePrometheus renders every registered series in Prometheus text
// exposition format (version 0.0.4). HELP/TYPE headers are emitted once
// per family, on its first series; series registered consecutively
// under one name form one family block.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	seen := make(map[string]bool, len(r.metrics))
	for i := range r.metrics {
		m := &r.metrics[i]
		if !seen[m.name] {
			seen[m.name] = true
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.kind)
		}
		switch m.kind {
		case counterKind, gaugeKind:
			v := m.fn
			var n int64
			if v != nil {
				n = v()
			} else if m.ctr != nil {
				n = m.ctr.Value()
			} else {
				n = m.gauge.Value()
			}
			fmt.Fprintf(w, "%s%s %d\n", m.name, renderLabels(m.labels), n)
		case histogramKind:
			writeHistogram(w, m)
		}
	}
}

// writeHistogram emits the cumulative bucket series, sum, and count for
// one histogram. Buckets are elided above the highest non-empty one —
// le="+Inf" always closes the series, so the exposition stays complete
// while a cold histogram costs two lines instead of fifty.
func writeHistogram(w io.Writer, m *metric) {
	count, sumNs, buckets := m.hist.snapshot()
	top := -1
	for i, b := range buckets {
		if b != 0 {
			top = i
		}
	}
	var cum int64
	for i := 0; i <= top; i++ {
		cum += buckets[i]
		if cum > count {
			cum = count // racing Observe landed in buckets after count was read
		}
		le := strconv.FormatFloat(float64(bucketUpperNanos(i))/1e9, 'g', -1, 64)
		fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, renderLabels(m.labels+`,le="`+le+`"`), cum)
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", m.name, renderLabels(m.labels+`,le="+Inf"`), count)
	fmt.Fprintf(w, "%s_sum%s %s\n", m.name, renderLabels(m.labels),
		strconv.FormatFloat(float64(sumNs)/1e9, 'g', -1, 64))
	fmt.Fprintf(w, "%s_count%s %d\n", m.name, renderLabels(m.labels), count)
}

// renderLabels wraps a pre-rendered label body in braces, tolerating a
// leading comma from label-less histogram bucket composition.
func renderLabels(body string) string {
	body = strings.TrimPrefix(body, ",")
	if body == "" {
		return ""
	}
	return "{" + body + "}"
}
