package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// MetricType classifies a registered metric.
type MetricType uint8

// Metric types.
const (
	TypeCounter MetricType = iota
	TypeGauge
	TypeSummary
)

func (t MetricType) String() string {
	switch t {
	case TypeCounter:
		return "counter"
	case TypeGauge:
		return "gauge"
	case TypeSummary:
		return "summary"
	default:
		return "untyped"
	}
}

// Label is one name=value pair on a point.
type Label struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Point is one sample of a counter or gauge: a value plus optional labels.
type Point struct {
	Labels []Label `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// SummaryView is what a summary metric's collector returns: quantile
// points plus count and sum, precomputed by the producer (typically from a
// metrics.Dist).
type SummaryView struct {
	Count     uint64       `json:"count"`
	Sum       float64      `json:"sum"`
	Quantiles [][2]float64 `json:"quantiles,omitempty"` // (q, value) pairs
}

type metric struct {
	name    string
	help    string
	typ     MetricType
	collect func() []Point
	summary func() SummaryView
}

// Registry is a pull-model metric registry: registration stores a name,
// help text, and a collect function; every scrape (Prometheus text, JSON,
// Snapshot) invokes the collectors. Nothing is cached, so a scrape always
// reflects live cluster state, and producers pay zero cost between
// scrapes.
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	names   map[string]struct{}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{})}
}

// Register adds a counter or gauge whose points are produced by collect at
// scrape time. Duplicate names panic: metric names are a fixed schema, so
// a collision is a programming error.
func (g *Registry) Register(name, help string, typ MetricType, collect func() []Point) {
	g.add(metric{name: name, help: help, typ: typ, collect: collect})
}

// RegisterFunc adds a single unlabeled counter or gauge.
func (g *Registry) RegisterFunc(name, help string, typ MetricType, fn func() float64) {
	g.Register(name, help, typ, func() []Point {
		return []Point{{Value: fn()}}
	})
}

// RegisterSummary adds a summary metric (quantiles + _sum/_count).
func (g *Registry) RegisterSummary(name, help string, collect func() SummaryView) {
	g.add(metric{name: name, help: help, typ: TypeSummary, summary: collect})
}

func (g *Registry) add(m metric) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.names[m.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric %q", m.name))
	}
	g.names[m.name] = struct{}{}
	g.metrics = append(g.metrics, m)
}

// MetricSnapshot is one metric's scraped state.
type MetricSnapshot struct {
	Name    string       `json:"name"`
	Help    string       `json:"help,omitempty"`
	Type    string       `json:"type"`
	Points  []Point      `json:"points,omitempty"`
	Summary *SummaryView `json:"summary,omitempty"`
}

// Snapshot scrapes every metric, sorted by name.
func (g *Registry) Snapshot() []MetricSnapshot {
	g.mu.Lock()
	ms := append([]metric(nil), g.metrics...)
	g.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	out := make([]MetricSnapshot, 0, len(ms))
	for _, m := range ms {
		snap := MetricSnapshot{Name: m.name, Help: m.help, Type: m.typ.String()}
		if m.typ == TypeSummary {
			v := m.summary()
			snap.Summary = &v
		} else {
			snap.Points = m.collect()
		}
		out = append(out, snap)
	}
	return out
}

// points scrapes the counters and gauges only, keyed by metric name.
// Summary collectors are never invoked: the watchdog reads only points,
// so a HealthView has no use for them.
func (g *Registry) points() map[string][]Point {
	g.mu.Lock()
	ms := append([]metric(nil), g.metrics...)
	g.mu.Unlock()
	out := make(map[string][]Point, len(ms))
	for _, m := range ms {
		if m.typ == TypeSummary {
			continue
		}
		if pts := m.collect(); len(pts) > 0 {
			out[m.name] = pts
		}
	}
	return out
}

// scrapeBuf pools the scratch buffers WritePrometheus renders into, so a
// scrape reuses one buffer across every collector instead of allocating
// per line. Concurrent scrapes each check out their own buffer.
var scrapeBuf = sync.Pool{New: func() any {
	b := make([]byte, 0, 1<<14)
	return &b
}}

// WritePrometheus renders a scrape in the Prometheus text exposition
// format (version 0.0.4). The whole scrape is appended into one pooled
// scratch buffer and written with a single Write.
func (g *Registry) WritePrometheus(w io.Writer) error {
	g.mu.Lock()
	ms := append([]metric(nil), g.metrics...)
	g.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	bp := scrapeBuf.Get().(*[]byte)
	b := (*bp)[:0]
	for _, m := range ms {
		if m.help != "" {
			b = append(b, "# HELP "...)
			b = append(b, m.name...)
			b = append(b, ' ')
			b = append(b, m.help...)
			b = append(b, '\n')
		}
		b = append(b, "# TYPE "...)
		b = append(b, m.name...)
		b = append(b, ' ')
		b = append(b, m.typ.String()...)
		b = append(b, '\n')
		if m.typ == TypeSummary {
			v := m.summary()
			for _, qv := range v.Quantiles {
				b = append(b, m.name...)
				b = append(b, `{quantile="`...)
				b = appendTrimFloat(b, qv[0])
				b = append(b, `"} `...)
				b = appendPromFloat(b, qv[1])
				b = append(b, '\n')
			}
			b = append(b, m.name...)
			b = append(b, "_sum "...)
			b = appendPromFloat(b, v.Sum)
			b = append(b, '\n')
			b = append(b, m.name...)
			b = append(b, "_count "...)
			b = strconv.AppendUint(b, v.Count, 10)
			b = append(b, '\n')
			continue
		}
		for _, p := range m.collect() {
			b = append(b, m.name...)
			b = appendPromLabels(b, p.Labels)
			b = append(b, ' ')
			b = appendPromFloat(b, p.Value)
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	*bp = b[:0]
	scrapeBuf.Put(bp)
	return err
}

func appendPromLabels(b []byte, labels []Label) []byte {
	if len(labels) == 0 {
		return b
	}
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, l.Value)
	}
	return append(b, '}')
}

func appendPromFloat(b []byte, v float64) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func appendTrimFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func trimFloat(v float64) string { return fmt.Sprintf("%g", v) }

// WriteJSON renders a scrape as one JSON object keyed by metric name, in
// the spirit of expvar: counters and gauges become numbers (or objects
// keyed by "k=v,..." label strings when labeled), summaries become
// {count, sum, q...} objects.
func (g *Registry) WriteJSON(w io.Writer) error {
	obj := make(map[string]any)
	for _, m := range g.Snapshot() {
		switch {
		case m.Summary != nil:
			s := map[string]any{"count": m.Summary.Count, "sum": m.Summary.Sum}
			for _, qv := range m.Summary.Quantiles {
				s["q"+trimFloat(qv[0])] = qv[1]
			}
			obj[m.Name] = s
		case len(m.Points) == 1 && len(m.Points[0].Labels) == 0:
			obj[m.Name] = m.Points[0].Value
		default:
			labeled := make(map[string]float64, len(m.Points))
			for _, p := range m.Points {
				parts := make([]string, 0, len(p.Labels))
				for _, l := range p.Labels {
					parts = append(parts, l.Key+"="+l.Value)
				}
				labeled[strings.Join(parts, ",")] = p.Value
			}
			obj[m.Name] = labeled
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(obj)
}
