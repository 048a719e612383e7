package main

// The telemetry subcommands: `trace` and `metrics` are thin HTTP clients
// for a cluster's telemetry endpoint (wire.TelemetryConfig.Addr);
// `serve` boots a demo wire cluster with the endpoint up and traffic
// flowing, so the other two have something to talk to.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"sort"
	"strings"
	"time"

	"difane"
	"difane/internal/telemetry"
)

// traceResponse mirrors telemetry.TraceResponse for decoding.
type traceResponse struct {
	NowNS   int64                   `json:"now_ns"`
	Enabled bool                    `json:"enabled"`
	Stats   telemetry.RecorderStats `json:"stats"`
	Events  []telemetry.EventJSON   `json:"events"`
}

func httpClient() *http.Client { return &http.Client{Timeout: 10 * time.Second} }

func fetchTrace(addr string, params url.Values) (*traceResponse, error) {
	u := "http://" + addr + "/trace"
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	resp, err := httpClient().Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var tr traceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		return nil, fmt.Errorf("decoding /trace response: %w", err)
	}
	return &tr, nil
}

// runTrace is `difanectl trace`: dump, follow, or narrate the flight
// recorder of a live cluster.
func runTrace(args []string) int {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	addr := fs.String("addr", "", "telemetry endpoint (host:port), required")
	follow := fs.Bool("follow", false, "poll for new events until interrupted")
	node := fs.String("node", "", "only events at this switch ID")
	kind := fs.String("kind", "", "comma-separated event kinds (forward,redirect,verdict,...)")
	flow := fs.Uint64("flow", 0, "only events of this flow hash")
	ipsrc := fs.String("ipsrc", "", "only events of flows from this IPv4 source")
	ipdst := fs.String("ipdst", "", "only events of flows to this IPv4 destination")
	tpdst := fs.Uint("tpdst", 0, "only events of flows to this transport port")
	limit := fs.Int("limit", 64, "max events per fetch (0 = all retained)")
	story := fs.Bool("story", false, "reconstruct one flow's hop-by-hop story (needs a flow filter)")
	_ = fs.Parse(args)
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "trace: -addr is required (see `difanectl serve`)")
		return 2
	}

	params := url.Values{}
	if *node != "" {
		params.Set("node", *node)
	}
	if *kind != "" {
		params.Set("kind", *kind)
	}
	if *flow != 0 {
		params.Set("flow", fmt.Sprint(*flow))
	}
	if *ipsrc != "" {
		params.Set("ipsrc", *ipsrc)
	}
	if *ipdst != "" {
		params.Set("ipdst", *ipdst)
	}
	if *tpdst != 0 {
		params.Set("tpdst", fmt.Sprint(*tpdst))
	}

	if *story {
		if *flow == 0 && *ipsrc == "" && *ipdst == "" && *tpdst == 0 {
			fmt.Fprintln(os.Stderr, "trace: -story needs a flow filter (-flow, -ipsrc, -ipdst, or -tpdst)")
			return 2
		}
		params.Set("limit", "0")
		tr, err := fetchTrace(*addr, params)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			return 1
		}
		printStory(tr)
		return 0
	}

	params.Set("limit", fmt.Sprint(*limit))
	tr, err := fetchTrace(*addr, params)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		return 1
	}
	if !tr.Enabled && len(tr.Events) == 0 {
		fmt.Println("(tracing is disabled on this cluster; start it with Telemetry.Tracing or SetTracing)")
	}
	for _, e := range tr.Events {
		fmt.Println(formatEvent(e))
	}
	if !*follow {
		return 0
	}
	since := tr.NowNS
	params.Set("limit", "0")
	for {
		time.Sleep(500 * time.Millisecond)
		params.Set("since", fmt.Sprint(since))
		tr, err := fetchTrace(*addr, params)
		if err != nil {
			fmt.Fprintln(os.Stderr, "trace:", err)
			return 1
		}
		for _, e := range tr.Events {
			fmt.Println(formatEvent(e))
		}
		since = tr.NowNS
	}
}

// formatEvent renders one event as a single human-readable line.
func formatEvent(e telemetry.EventJSON) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%12.3fms  %-9s %-15s", float64(e.TS)/1e6, nodeName(e.Node), e.Kind)
	switch e.Kind {
	case "ingress":
		b.WriteString(" packet entered the data plane")
	case "install-triggered":
		fmt.Fprintf(&b, " cache rule %d decided for sw%d", e.RuleID, e.Peer)
	case "forward":
		fmt.Fprintf(&b, " -> sw%d", e.Peer)
		if e.Table != "" {
			fmt.Fprintf(&b, " via %s rule %d", e.Table, e.RuleID)
		}
	case "redirect":
		fmt.Fprintf(&b, " -> authority sw%d", e.Peer)
	case "authority":
		fmt.Fprintf(&b, " resolved rule %d (ingress sw%d)", e.RuleID, e.Peer)
	case "verdict":
		fmt.Fprintf(&b, " %s", e.Verdict)
		if e.Verdict == "delivered" {
			fmt.Fprintf(&b, " in %s", time.Duration(e.Value))
		}
	case "shed":
		fmt.Fprintf(&b, " %s", e.Verdict)
	case "install", "evict", "expire":
		fmt.Fprintf(&b, " %s rule %d", e.Table, e.RuleID)
	case "failover-local":
		fmt.Fprintf(&b, " partition rule %d repointed sw%d -> sw%d", e.RuleID, e.Value, e.Peer)
	case "promote":
		fmt.Fprintf(&b, " %d partition rules withdrawn", e.Value)
	case "epoch-raise", "epoch-reject", "controller-down", "controller-up":
		fmt.Fprintf(&b, " epoch %d", e.Value)
	case "bfd-up", "bfd-down":
		fmt.Fprintf(&b, " discr %d", e.Peer)
	case "leader-elected":
		fmt.Fprintf(&b, " replica %d epoch %d", e.Peer, e.Value)
	}
	if e.Src != "" || e.Dst != "" {
		fmt.Fprintf(&b, "  [%s -> %s]", e.Src, e.Dst)
	}
	return b.String()
}

func nodeName(id uint32) string {
	if id == telemetry.ClusterNode {
		return "cluster"
	}
	return fmt.Sprintf("sw%d", id)
}

// orderEvents returns evs merged into global timestamp order with a
// stable node-ID tie-break (then per-node sequence). The server usually
// sorts, but a story stitched from per-node rings must not depend on it:
// without the node tie-break, same-timestamp events from different nodes
// interleave in whatever order the rings were snapshotted.
func orderEvents(evs []telemetry.EventJSON) []telemetry.EventJSON {
	out := append([]telemetry.EventJSON(nil), evs...)
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.TS != b.TS {
			return a.TS < b.TS
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	return out
}

// printStory narrates a flow's events grouped by flow hash, so one filter
// that matches several flows prints several stories. Each story's events
// are merged across nodes into global timestamp order.
func printStory(tr *traceResponse) {
	byFlow := make(map[uint64][]telemetry.EventJSON)
	var order []uint64
	for _, e := range tr.Events {
		if e.Flow == 0 {
			continue
		}
		if _, seen := byFlow[e.Flow]; !seen {
			order = append(order, e.Flow)
		}
		byFlow[e.Flow] = append(byFlow[e.Flow], e)
	}
	if len(order) == 0 {
		fmt.Println("no flow events matched (is tracing enabled and traffic flowing?)")
		return
	}
	for h := range byFlow {
		byFlow[h] = orderEvents(byFlow[h])
	}
	sort.Slice(order, func(i, j int) bool { return byFlow[order[i]][0].TS < byFlow[order[j]][0].TS })
	for _, h := range order {
		evs := byFlow[h]
		first := evs[0]
		fmt.Printf("flow %d", h)
		if first.Src != "" || first.Dst != "" {
			fmt.Printf(" (%s -> %s proto %d)", first.Src, first.Dst, first.Proto)
		}
		fmt.Println()
		for _, e := range evs {
			fmt.Println("  " + formatEvent(e))
		}
	}
}

// runMetrics is `difanectl metrics`: scrape /metrics (or /vars with
// -json) from a live cluster and print it.
func runMetrics(args []string) int {
	fs := flag.NewFlagSet("metrics", flag.ExitOnError)
	addr := fs.String("addr", "", "telemetry endpoint (host:port), required")
	asJSON := fs.Bool("json", false, "scrape /vars (JSON) instead of /metrics (Prometheus text)")
	_ = fs.Parse(args)
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "metrics: -addr is required (see `difanectl serve`)")
		return 2
	}
	path := "/metrics"
	if *asJSON {
		path = "/vars"
	}
	resp, err := httpClient().Get("http://" + *addr + path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metrics:", err)
		return 1
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintln(os.Stderr, "metrics:", resp.Status)
		return 1
	}
	_, _ = io.Copy(os.Stdout, resp.Body)
	return 0
}

// runServe is `difanectl serve`: boot a demo wire cluster with the
// telemetry endpoint bound and keep traffic flowing until the duration
// expires (or forever with -duration 0), so `difanectl trace` and
// `difanectl metrics` have a live target.
func runServe(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("telemetry", "127.0.0.1:9090", "address to serve the telemetry endpoint on")
	switches := fs.Int("switches", 8, "cluster size")
	replicas := fs.Int("replicas", 3, "controller replicas (>= 2 enables leader election; /ha shows the set)")
	tracing := fs.Bool("trace", true, "start with the flight recorder enabled")
	traceSample := fs.Int("trace-sample", 64, "trace 1 in N packets into end-to-end journeys (0 disables)")
	duration := fs.Duration("duration", 0, "stop after this long (0 = run until interrupted)")
	seed := fs.Int64("seed", 1, "traffic generator seed")
	rate := fs.Int("rate", 2000, "injected packets per second")
	_ = fs.Parse(args)
	if *switches < 2 {
		*switches = 2
	}

	ids := make([]uint32, *switches)
	policy := make([]difane.Rule, 0, *switches)
	for i := range ids {
		ids[i] = uint32(i)
		// Rule i forwards TPDst 1000+i to switch i, spreading deliveries
		// across every egress (the same shape as the throughput bench).
		policy = append(policy, difane.Rule{
			ID: uint64(i) + 1, Priority: 10,
			Match:  difane.MatchAll().WithExact(difane.FTPDst, 1000+uint64(i)),
			Action: difane.Action{Kind: difane.ActForward, Arg: uint32(i)},
		})
	}
	auths := []uint32{ids[*switches/4], ids[(3**switches)/4]}
	if auths[0] == auths[1] {
		auths = auths[:1]
	}
	wd, err := difane.NewWireDeployment(difane.ClusterConfig{
		Switches:      ids,
		Authorities:   auths,
		Policy:        policy,
		Strategy:      difane.StrategyExact,
		CacheCapacity: 256,
		QueueDepth:    8192,
		HA:            difane.HAConfig{Replicas: *replicas},
		Telemetry: difane.TelemetryConfig{
			Addr: *addr, Tracing: *tracing, TraceSample: *traceSample,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		return 1
	}
	defer wd.Close()

	bound := wd.C.TelemetryAddr()
	fmt.Printf("wire cluster up: %d switches, authorities %v, tracing=%v\n", *switches, auths, *tracing)
	fmt.Printf("telemetry at http://%s  (try /metrics /vars /trace /journeys /status /ha /convergence /health)\n", bound)
	fmt.Printf("  difanectl metrics -addr %s\n", bound)
	fmt.Printf("  difanectl trace -addr %s -follow\n", bound)
	if *traceSample > 0 {
		fmt.Printf("  difanectl journey -addr %s -slowest\n", bound)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	deadline := time.Time{}
	if *duration > 0 {
		deadline = time.Now().Add(*duration)
	}

	// A steady mixed workload: mostly repeat flows (cache hits) with a
	// rotating cold tail (authority detours), so every event kind shows up.
	rng := *seed
	next := func() uint64 { rng = rng*6364136223846793005 + 1442695040888963407; return uint64(rng) }
	interval := time.Second / time.Duration(*rate)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var n uint64
	for {
		select {
		case <-stop:
			fmt.Println("\ninterrupted; shutting down")
			return 0
		case <-ticker.C:
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			fmt.Println("duration elapsed; shutting down")
			return 0
		}
		n++
		r := next()
		var k difane.Key
		if n%8 == 0 {
			k[difane.FIPSrc] = uint64(0x0a000000 + r%100000) // cold: new flow, detours
		} else {
			k[difane.FIPSrc] = uint64(0x0a000000 + r%64) // warm: repeats, cache hits
		}
		k[difane.FIPDst] = 0x0a000001
		k[difane.FTPDst] = 1000 + r%uint64(*switches)
		ingress := ids[int(r>>32)%len(ids)]
		wd.InjectPacket(0, ingress, k, 200, n%3)
	}
}
