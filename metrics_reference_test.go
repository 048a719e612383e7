package difane_test

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"difane"
	"difane/internal/core"
	"difane/internal/subscriber"
	"difane/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite docs/METRICS.md from the registries")

const metricsReference = "docs/METRICS.md"

// TestMetricReference renders the difane_* metric reference from the
// registries themselves — the simulator, the reactive baseline and a
// 4-switch wire cluster, each with LRU and with cost-aware eviction, and a
// soak run on a wire cluster — and fails when docs/METRICS.md differs. A
// name must mean one thing: the same type and help wherever it is
// registered. Refresh the file with
//
//	go test . -run TestMetricReference -update-golden   (or: make regen-golden)
func TestMetricReference(t *testing.T) {
	g := difane.LinearTopology(4, 0.001)
	policy := []difane.Rule{
		{ID: 1, Priority: 10, Match: difane.MatchAll().WithExact(difane.FTPDst, 80),
			Action: difane.Action{Kind: difane.ActForward, Arg: 3}},
		{ID: 2, Priority: 0, Match: difane.MatchAll(),
			Action: difane.Action{Kind: difane.ActDrop}},
	}
	evictions := []struct {
		name  string
		evict core.EvictionChoice
	}{{"LRU", core.EvictDefaultLRU}, {"cost-aware", core.EvictCostAware}}

	// scrape closes d after one snapshot of its registry.
	scrape := func(d difane.Deployment, err error) []telemetry.MetricSnapshot {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		return d.Telemetry().Metrics
	}
	var sources []metricSource
	for _, e := range evictions {
		sources = append(sources,
			metricSource{"sim", e.name, scrape(difane.New(g, []uint32{1}, policy,
				difane.Config{CacheEviction: e.evict}))},
			metricSource{"baseline", e.name, scrape(difane.NewBaseline(g, policy,
				difane.BaselineConfig{ControllerNode: 1, CacheEviction: e.evict}))},
			metricSource{"wire", e.name, scrape(difane.NewWireDeployment(difane.ClusterConfig{
				Switches: []uint32{0, 1, 2, 3}, Authorities: []uint32{1}, Policy: policy,
				CacheEviction: e.evict,
			}))})
	}
	setup := subscriber.Setup{Switches: 4, Rules: 32, Seed: 5}
	d, spec, err := setup.Deploy()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := difane.RunSoak(d, spec, difane.SoakConfig{
		Engine: subscriber.Config{ArrivalRate: 200, MeanSessionLife: 0.5, Seed: 5},
		Phases: subscriber.SmokeScript(1),
	}); err != nil {
		t.Fatal(err)
	}
	sources = append(sources, metricSource{"soak", "LRU", scrape(d, nil)})

	got := renderMetricReference(t, sources)
	if *updateGolden {
		if err := os.WriteFile(metricsReference, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(metricsReference)
	if err != nil {
		t.Fatalf("%v (run with -update-golden)", err)
	}
	if string(want) != got {
		t.Fatalf("%s is stale: the registries now render\n%s\n(run go test . -run TestMetricReference -update-golden)",
			metricsReference, got)
	}
}

// metricSource is one registry scrape: the backend, the eviction it ran
// with and its metrics.
type metricSource struct {
	backend, eviction string
	metrics           []telemetry.MetricSnapshot
}

// renderMetricReference lays the sources out as one Markdown row per name.
// A soak source contributes only the names its wire cluster does not
// already export; a backend that registers a name only under cost-aware
// eviction is marked so.
func renderMetricReference(t *testing.T, sources []metricSource) string {
	type row struct {
		typ, help string
		labels    []string
		where     map[string][]string // backend → evictions registering it
	}
	rows := map[string]*row{}
	backends := []string{}
	perSource := map[string]int{}
	for _, s := range sources {
		if !slices.Contains(backends, s.backend) {
			backends = append(backends, s.backend)
		}
		perSource[s.backend+" "+s.eviction] = len(s.metrics)
		for _, m := range s.metrics {
			r := rows[m.Name]
			if r == nil {
				r = &row{typ: m.Type, help: m.Help, where: map[string][]string{}}
				rows[m.Name] = r
			} else if r.typ != m.Type || r.help != m.Help {
				t.Fatalf("%s is a %s %q on one backend and a %s %q on %s: a name means one thing",
					m.Name, r.typ, r.help, m.Type, m.Help, s.backend)
			}
			if m.Summary != nil && !slices.Contains(r.labels, "quantile") {
				r.labels = append(r.labels, "quantile")
			}
			for _, p := range m.Points {
				for _, l := range p.Labels {
					if !slices.Contains(r.labels, l.Key) {
						r.labels = append(r.labels, l.Key)
					}
				}
			}
			if !slices.Contains(r.where[s.backend], s.eviction) {
				r.where[s.backend] = append(r.where[s.backend], s.eviction)
			}
		}
	}
	names := make([]string, 0, len(rows))
	for name, r := range rows {
		if len(r.where) > 1 {
			delete(r.where, "soak") // the soak's wire cluster, not the soak's own
		}
		names = append(names, name)
	}
	slices.Sort(names)

	var b strings.Builder
	b.WriteString("# Metric reference\n\n")
	b.WriteString("Generated from the registries by `TestMetricReference` (metrics_reference_test.go);\n")
	b.WriteString("do not edit. Refresh with `make regen-golden`. `make unused` fails on a\n")
	b.WriteString("registered series that no health rule, test, `difanectl`, soak or `bench/` code reads.\n\n")
	fmt.Fprintf(&b, "%d names. Registered per deployment:\n\n", len(names))
	b.WriteString("| deployment | LRU | cost-aware |\n|---|---|---|\n")
	for _, be := range backends {
		if be == "soak" {
			fmt.Fprintf(&b, "| soak on a 4-switch wire cluster | %d | |\n", perSource["soak LRU"])
			continue
		}
		fmt.Fprintf(&b, "| %s | %d | %d |\n", be, perSource[be+" LRU"], perSource[be+" cost-aware"])
	}
	b.WriteString("\nThe wire rows are a 4-switch cluster: a per-switch series has one point per switch.\n\n")
	b.WriteString("| name | type | labels | backends | help |\n|---|---|---|---|---|\n")
	for _, name := range names {
		r := rows[name]
		var where []string
		for _, be := range backends {
			ev, ok := r.where[be]
			switch {
			case !ok:
			case len(ev) == 1 && ev[0] == "cost-aware":
				where = append(where, be+" (cost-aware)")
			default:
				where = append(where, be)
			}
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n",
			name, r.typ, strings.Join(r.labels, ", "), strings.Join(where, ", "), r.help)
	}
	return b.String()
}
