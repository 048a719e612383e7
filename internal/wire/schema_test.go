package wire

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"difane/internal/baseline"
	"difane/internal/core"
	"difane/internal/flowspace"
	"difane/internal/telemetry"
	"difane/internal/topo"
)

// schemaBackend is what the three backends share, as far as this file
// drives them.
type schemaBackend interface {
	InjectPacket(at float64, ingress uint32, k flowspace.Key, size int, seq uint64)
	Run(horizon float64)
	Measurements() *core.Measurements
	Telemetry() *telemetry.Snapshot
}

// TestSharedSchemaAcrossBackends runs one small scenario — three new flows
// with a second packet each, one policy drop and one policy hole — through
// sim, baseline and wire and checks the measurement spine is the same on
// each: every series core.RegisterMeasurements and a bare telemetry.Probe
// register is in the backend's Telemetry() with the same type and help,
// and every measurement series reads exactly what the backend's
// Measurements() says. A name means one thing: difane_dropped_total is
// losses only, on all three.
func TestSharedSchemaAcrossBackends(t *testing.T) {
	// No catch-all rule: port 443 falls in a policy hole.
	policy := testPolicy()[:2]
	const nodes, authority = 5, 2
	backends := map[string]func(t *testing.T) schemaBackend{
		"sim": func(t *testing.T) schemaBackend {
			n, err := core.NewNetwork(topo.Linear(nodes, 0.001), []uint32{authority}, policy,
				core.NetworkConfig{Strategy: core.StrategyExact, CacheEviction: core.EvictCostAware})
			if err != nil {
				t.Fatal(err)
			}
			return n
		},
		"baseline": func(t *testing.T) schemaBackend {
			n, err := baseline.NewNetwork(topo.Linear(nodes, 0.001), policy,
				baseline.Config{ControllerNode: authority, CacheEviction: core.EvictCostAware})
			if err != nil {
				t.Fatal(err)
			}
			return n
		},
		"wire": func(t *testing.T) schemaBackend {
			return Deploy(startCluster(t, slack(ClusterConfig{
				Switches:      []uint32{0, 1, 2, 3, 4},
				Authorities:   []uint32{authority},
				Policy:        policy,
				Strategy:      core.StrategyExact,
				CacheEviction: core.EvictCostAware,
			})))
		},
	}
	for name, build := range backends {
		t.Run(name, func(t *testing.T) {
			b := build(t)
			key := func(src, port uint64) (k flowspace.Key) {
				k[flowspace.FIPSrc], k[flowspace.FTPDst] = src, port
				return k
			}
			for seq := uint64(0); seq < 2; seq++ {
				for src := uint64(1); src <= 3; src++ {
					b.InjectPacket(float64(seq), 0, key(src, 80), 100, seq)
				}
				b.Run(float64(seq) + 0.5)
			}
			b.InjectPacket(2, 1, key(9, 22), 100, 0)
			b.InjectPacket(2, 1, key(9, 443), 100, 0)
			b.Run(3)

			m := b.Measurements()
			if m.Delivered != 6 || m.Drops != (core.Drops{Policy: 1, Hole: 1}) {
				t.Fatalf("scenario: delivered %d, drops %+v; want 6 delivered, one policy drop, one hole",
					m.Delivered, m.Drops)
			}
			got := make(map[string]telemetry.MetricSnapshot)
			for _, s := range b.Telemetry().Metrics {
				got[s.Name] = s
			}

			// The reference: the same registrations over this backend's own
			// Measurements, and a probe with nothing around it.
			ref := telemetry.NewRegistry()
			core.RegisterMeasurements(ref, func() *core.Measurements { return m })
			for _, want := range ref.Snapshot() {
				have, ok := got[want.Name]
				if !ok {
					t.Errorf("%s is not exported", want.Name)
				} else if !reflect.DeepEqual(have, want) {
					t.Errorf("%s = %+v (summary %+v)\n\twant %+v (summary %+v)",
						want.Name, have, have.Summary, want, want.Summary)
				}
			}
			for _, want := range telemetry.NewProbe(telemetry.ProbeConfig{}).Registry().Snapshot() {
				if have, ok := got[want.Name]; !ok || have.Type != want.Type || have.Help != want.Help {
					t.Errorf("%s: exported=%v as %s %q, want %s %q",
						want.Name, ok, have.Type, have.Help, want.Type, want.Help)
				}
			}

			if v, _ := b.Telemetry().Value("difane_dropped_total"); v != 1 {
				t.Errorf("difane_dropped_total = %v, want 1: the hole is a loss, the policy drop is not", v)
			}
			// The Measurements behind this registry are what a cost-aware
			// deployment's adaptation round takes its hit-rate prior from
			// (cachepolicy.SetPriors): without redirects counted in them the
			// prior is pinned at 1.0. (The baseline punts to its controller and
			// redirects nothing.)
			if v, _ := b.Telemetry().Value("difane_redirects_total"); v < 3 && name != "baseline" {
				t.Errorf("difane_redirects_total = %v after three new flows", v)
			}
		})
	}
}

// TestHealthRulesReadLiveSeries checks that every series a default
// health rule reads is one a wire cluster exports: a rule that reads a
// name no backend registers sees zero for ever, so it never fires. The
// names are the string literals health.go's DefaultHealthRules hands to
// the HealthView accessors, read from the source.
func TestHealthRulesReadLiveSeries(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "../telemetry/health.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var read []string
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "DefaultHealthRules" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			lit, isLit := call.Args[0].(*ast.BasicLit)
			if !ok || !isLit || lit.Kind != token.STRING {
				return true
			}
			switch sel.Sel.Name {
			case "Sum", "Delta", "Rate", "DeltaByLabel":
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				read = append(read, name)
			}
			return true
		})
	}
	if rules := len(telemetry.DefaultHealthRules()); len(read) < rules {
		t.Fatalf("found %d series read by %d rules: every rule reads at least one", len(read), rules)
	}

	c := startCluster(t, slack(ClusterConfig{
		Switches:    []uint32{0, 1, 2, 3, 4},
		Authorities: []uint32{2},
		Policy:      testPolicy(),
	}))
	exported := map[string]bool{}
	for _, m := range c.Telemetry().Metrics {
		exported[m.Name] = true
	}
	for _, name := range read {
		if !exported[name] {
			t.Errorf("a default health rule reads %s, which a wire cluster does not export", name)
		}
	}
}

// TestScrapeWhileForwarding is the reader-against-writer check the
// measurement spine has to pass under -race now that a distribution is a
// plain value behind its shard's lock: one goroutine loops Measurements(),
// Telemetry() and a Prometheus scrape while 200k packets flow through an
// 8-switch cluster, and the final counts are exact.
func TestScrapeWhileForwarding(t *testing.T) {
	const packets, batch, window = 200_000, 250, 2000
	d := hitPathDeployment(t, core.PartitionConfig{})
	burst := make([]core.PacketIn, batch)
	for i := range burst {
		var k flowspace.Key
		k[flowspace.FIPSrc], k[flowspace.FTPDst] = uint64(1+i%16), uint64(1000+i%8)
		burst[i] = core.PacketIn{Ingress: uint32(i % 8), Key: k, Size: 100}
	}

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		var last uint64
		var buf bytes.Buffer
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := d.Measurements()
			if n := uint64(m.FirstPacketDelay.N() + m.LaterPacketDelay.N()); m.Delivered < last || n < last {
				t.Errorf("snapshot went backwards: delivered %d, %d samples, after %d", m.Delivered, n, last)
				return
			}
			last = m.Delivered
			d.Telemetry()
			buf.Reset()
			if err := d.C.Registry().WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for sent := 0; sent < packets; sent += window {
		for b := 0; b < window; b += batch {
			d.InjectBatch(burst)
		}
		d.Run(30)
	}
	close(stop)
	reader.Wait()

	m := d.Measurements()
	if m.Delivered != packets || m.Drops != (core.Drops{}) {
		t.Fatalf("delivered %d of %d, drops %+v, %d switches declared dead",
			m.Delivered, packets, m.Drops, m.AuthorityDeaths)
	}
	if n := m.FirstPacketDelay.N() + m.LaterPacketDelay.N(); n != packets || m.FirstPacketDelay.N() != int(m.Redirects) {
		t.Fatalf("%d latency samples for %d packets, %d first-packet samples for %d redirects",
			n, packets, m.FirstPacketDelay.N(), m.Redirects)
	}
	if v, _ := d.Telemetry().Value("difane_delivered_total"); v != packets {
		t.Fatalf("difane_delivered_total = %v, want %d", v, packets)
	}
}
