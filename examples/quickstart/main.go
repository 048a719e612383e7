// Quickstart: build a DIFANE deployment over the synthetic campus
// network, replay a Zipf traffic trace, and print what happened — the
// five-minute tour of the public API.
package main

import (
	"fmt"

	"difane"
	"difane/internal/metrics"
)

func main() {
	// 1. A network: topology + edge switches + a prioritized rule set.
	spec := difane.CampusNetwork(1, difane.ScaleTest)
	fmt.Printf("network %q: %d switches, %d policy rules\n",
		spec.Name, spec.Graph.NumNodes(), len(spec.Policy))

	// 2. Pick authority switches and build the DIFANE deployment. The
	// controller partitions the flow space and pre-installs authority and
	// partition rules; no packet ever visits the controller.
	auths := difane.PlaceAuthorities(spec.Graph, 3)
	net, err := difane.New(spec.Graph, auths, spec.Policy, difane.Config{
		Strategy:  difane.StrategyCover, // wildcard-safe cache rules
		CacheIdle: 30,                   // cache rules idle out after 30s
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("authorities %v hold %d partitions\n",
		auths, len(net.Assignment().Partitions))

	// 3. Replay a Zipf-popularity trace.
	flows := difane.GenerateTraffic(spec, difane.TrafficConfig{
		Flows: 5000, Rate: 2000, ZipfAlpha: 1.3, Seed: 2,
	})
	difane.RunTrace(net, flows, 60)

	// 4. Results.
	m := &net.M
	total := m.Delivered + m.Drops.Policy
	fmt.Printf("\npackets handled: %d (delivered %d, policy-dropped %d)\n",
		total, m.Delivered, m.Drops.Policy)
	fmt.Printf("cache misses redirected via authorities: %d (%.1f%%)\n",
		m.Redirects, 100*float64(m.Redirects)/float64(total))
	fmt.Printf("first-packet delay: p50=%s p99=%s\n",
		metrics.FormatDuration(m.FirstPacketDelay.Percentile(50)),
		metrics.FormatDuration(m.FirstPacketDelay.Percentile(99)))
	fmt.Printf("detour stretch: mean %.2fx over %d redirected packets\n",
		m.Stretch.Mean(), m.Stretch.N())
	fmt.Printf("resident cache entries across switches: %d\n", net.CacheEntries())
}
