// Command difane-bench regenerates every table and figure of the DIFANE
// evaluation (see DESIGN.md §3 for the experiment index) and prints them
// as text tables/series.
//
// Usage:
//
//	difane-bench [-quick] [-only T1,F1,...] [-seed N]
//
// With -cache-ablation-smoke it instead runs the fixed-seed F6b eviction
// ablation as a pass/fail gate (cost-aware miss rate <= LRU at every TCAM
// budget), writing the rendered table to -out when the gate fails:
//
//	difane-bench -cache-ablation-smoke [-quick] [-seed N] [-out FILE]
//
// Wire-mode throughput, latency, allocation and tracing-overhead numbers
// come from the repo's one benchmark harness: go run -C bench .
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"difane/experiments"
)

type renderer interface{ Render() string }

func main() {
	quick := flag.Bool("quick", false, "run reduced-scale workloads")
	only := flag.String("only", "", "comma-separated experiment IDs to run (default all)")
	seed := flag.Int64("seed", 42, "generator seed")
	out := flag.String("out", "bench-out/cache_ablation_smoke.txt", "where -cache-ablation-smoke writes its table when the gate fails")
	cacheSmoke := flag.Bool("cache-ablation-smoke", false, "run the F6b eviction ablation and fail unless cost-aware miss rate <= LRU at every TCAM budget")
	flag.Parse()

	if *cacheSmoke {
		os.Exit(runCacheAblationSmoke(*quick, *seed, *out))
	}

	opts := experiments.Bench()
	if *quick {
		opts = experiments.Quick()
	}
	opts.Seed = *seed

	all := []struct {
		id  string
		run func(experiments.Options) renderer
	}{
		{"T1", func(o experiments.Options) renderer { return experiments.TableNetworks(o) }},
		{"F1", func(o experiments.Options) renderer { return experiments.FigFirstPacketDelay(o) }},
		{"F2", func(o experiments.Options) renderer { return experiments.FigThroughput(o) }},
		{"F3", func(o experiments.Options) renderer { return experiments.FigAuthorityScaling(o) }},
		{"F4", func(o experiments.Options) renderer { return experiments.FigPartitionTCAM(o) }},
		{"F5", func(o experiments.Options) renderer { return experiments.FigSplitOverhead(o) }},
		{"F6", func(o experiments.Options) renderer { return experiments.FigCacheMiss(o) }},
		{"F6B", func(o experiments.Options) renderer { return experiments.FigCacheBudget(o) }},
		{"F7", func(o experiments.Options) renderer { return experiments.FigStretch(o) }},
		{"F8", func(o experiments.Options) renderer { return experiments.FigFailover(o) }},
		{"F9", func(o experiments.Options) renderer { return experiments.FigPolicyChange(o) }},
		{"F10", func(o experiments.Options) renderer { return experiments.FigCacheTimeout(o) }},
		{"F11", func(o experiments.Options) renderer { return experiments.FigControlLoad(o) }},
		{"F12", func(o experiments.Options) renderer { return experiments.FigLinkLoad(o) }},
		{"A1", func(o experiments.Options) renderer { return experiments.AblationCacheStrategy(o) }},
		{"A2", func(o experiments.Options) renderer { return experiments.AblationPartitioner(o) }},
		{"A3", func(o experiments.Options) renderer { return experiments.AblationEviction(o) }},
		{"A4", func(o experiments.Options) renderer { return experiments.AblationRebalance(o) }},
		{"W3", func(o experiments.Options) renderer { return experiments.WireRobustness(o) }},
	}

	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	ran := 0
	for _, exp := range all {
		if len(want) > 0 && !want[exp.id] {
			continue
		}
		start := time.Now()
		result := exp.run(opts)
		fmt.Println(result.Render())
		fmt.Printf("(%s completed in %v)\n\n", exp.id, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "no experiments matched -only=%q\n", *only)
		os.Exit(2)
	}
}

// runCacheAblationSmoke is the CI gate on the adaptive-caching claim: it
// runs the F6b eviction ablation (fixed seed, so the comparison is exact,
// not statistical) and fails unless the cost-aware policy's miss rate is
// at or below LRU's at every TCAM budget in the sweep. On failure the
// rendered table lands at -out for the CI artifact upload.
func runCacheAblationSmoke(quick bool, seed int64, out string) int {
	opts := experiments.Bench()
	if quick {
		opts = experiments.Quick()
	}
	opts.Seed = seed
	start := time.Now()
	r := experiments.FigCacheBudget(opts)
	fmt.Println(r.Render())
	fmt.Printf("(cache ablation smoke completed in %v)\n", time.Since(start).Round(time.Millisecond))

	miss := map[int]map[string]float64{}
	for _, p := range r.Points {
		if miss[p.Budget] == nil {
			miss[p.Budget] = map[string]float64{}
		}
		miss[p.Budget][p.Policy.String()] = p.MissRate
	}
	var fails []string
	for budget, m := range miss {
		if m["cost"] > m["lru"] {
			fails = append(fails, fmt.Sprintf(
				"budget %d: cost-aware miss rate %.4f > lru %.4f at equal budget",
				budget, m["cost"], m["lru"]))
		}
	}
	if len(fails) > 0 {
		fmt.Fprintln(os.Stderr, "CACHE ABLATION GATE FAILED:")
		for _, f := range fails {
			fmt.Fprintf(os.Stderr, "  %s\n", f)
		}
		if out != "" {
			if err := os.MkdirAll(filepath.Dir(out), 0o755); err == nil {
				report := r.Render() + "\n" + strings.Join(fails, "\n") + "\n"
				if err := os.WriteFile(out, []byte(report), 0o644); err == nil {
					fmt.Fprintf(os.Stderr, "report written to %s\n", out)
				}
			}
		}
		return 1
	}
	fmt.Println("cost-aware miss rate <= lru at every budget")
	return 0
}
