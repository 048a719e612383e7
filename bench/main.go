// Command bench is the repository's benchmark: four workloads driven
// against the wire backend through its public surface, every verdict count
// checked against internal/oracle, every metric printed by name with its
// unit. README.md explains the run shape and how to read the numbers;
// ../BENCHMARK.json is the contract the driver holds it to.
//
//	go run -C bench . -seed 42                      every workload, end-to-end metrics
//	go run -C bench . -workload hit-large -trace 1  one traced run, per-layer metrics
//	go run -C bench . -selfcheck                    the set twice, compared within bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// options are the command line's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
}

// result is one workload's outcome: medians over its reps.
type result struct {
	name              string
	attempted, failed uint64
	errs              []string
	defs              []metricDef
	metrics           map[string]float64
}

// runWorkload runs one workload. Untraced, it repeats fresh-deployment reps
// until their timed phases add up to opt.seconds and reports each
// end-to-end metric's median over the reps. Traced, it runs one traced rep
// between two untraced ones, plus the ledger replay, and reports the
// per-layer metrics.
func runWorkload(w *workloadSpec, opt options) (*result, error) {
	genStart := time.Now()
	tr, err := buildTrace(w, opt.seed)
	if err != nil {
		return nil, err
	}
	build := time.Since(genStart).Seconds()
	if opt.trace {
		return runTraced(w, tr, build, opt)
	}

	var reps []*rep
	timed := 0.0
	for len(reps) < maxReps && (len(reps) < minReps || timed < opt.seconds) {
		r, err := runRep(w, tr, nil)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
		timed += r.timed.Seconds()
	}

	res := &result{name: w.name, defs: endToEnd, metrics: make(map[string]float64)}
	for _, r := range reps {
		res.attempted += r.attempted
		res.failed += r.failed
		res.errs = append(res.errs, r.errs...)
	}
	for _, def := range endToEnd {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = r.vals[def.name]
		}
		fmt.Printf("# %s %s of each rep: %.6g\n", w.name, def.name, vals)
		res.metrics[def.name] = median(vals)
	}
	return res, nil
}

// runTraced is the traced run of one workload. The traced rep is held
// against the untraced rep after it, not the one before: a process's first
// rep runs up to 30% slower while the heap's pages are faulted in, and only
// serves to get that over with.
func runTraced(w *workloadSpec, tr *trace, build float64, opt options) (*result, error) {
	first, err := runRep(w, tr, nil)
	if err != nil {
		return nil, err
	}
	tz := newTracer()
	traced, err := runRep(w, tr, tz)
	if err != nil {
		return nil, err
	}
	plain, err := runRep(w, tr, nil)
	if err != nil {
		return nil, err
	}
	layer, err := replay(w, tr, traced.tabs, tz)
	if err != nil {
		return nil, err
	}

	res := &result{
		name: w.name, defs: perLayer, metrics: layer,
		attempted: first.attempted + traced.attempted + plain.attempted,
		failed:    first.failed + traced.failed + plain.failed,
		errs:      append(append(first.errs, traced.errs...), plain.errs...),
	}
	for name, v := range traced.vals {
		layer[name] = v
	}
	layer["wire.new_deployment_ms"] = tz.lastMS("wire.NewDeployment")
	layer["wire.warm_ms"] = tz.lastMS("warm")
	layer["wire.measurements_ms"] = tz.lastMS("wire.Measurements")
	layer["telemetry.scrape_ms"] = tz.lastMS("wire.Telemetry")
	layer["wire.close_ms"] = tz.lastMS("wire.Close")
	layer["wire.inject_batch_ns"] = tz.perPacket("timed", "wire.InjectBatch")
	runNS, _ := tz.total("timed", "wire.Run")
	layer["wire.run_wait_ns"] = float64(runNS) / float64(traced.attempted)
	layer["gen.trace_build_s"] = build
	layer["wire.unattributed_ns"] = plain.vals["cpu_us_per_pkt"]*1e3 -
		attributed(w, layer, plain.vals["wire.miss_ratio"], plain.vals["wire.install_ratio"])
	layer["trace.overhead_pct"] = 100 * (plain.vals["goodput_pps"] - traced.vals["goodput_pps"]) /
		plain.vals["goodput_pps"]

	if err := os.MkdirAll(opt.outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(opt.outDir, "trace-"+w.name+".jsonl")
	if err := tz.writeJSONL(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# %d spans written to %s\n", len(tz.spans), path)
	return res, nil
}

// jsonLine is the one-line result the driver reads: every metric of the
// run's kind with its value and unit.
func (r *result) jsonLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{!r.bad(), r.attempted, r.failed, make(map[string]value)}
	for _, def := range r.defs {
		v := r.metrics[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s: metric %s is %v", r.name, def.name, v)
		}
		out.Metrics[def.name] = value{v, def.unit}
	}
	return json.Marshal(out)
}

// bad reports whether any operation failed or any check was breached.
func (r *result) bad() bool { return r.failed > 0 || len(r.errs) > 0 }

// print writes the workload's metrics by name with their units, then the
// JSON result line.
func (r *result) print() error {
	line, err := r.jsonLine()
	if err != nil {
		return err
	}
	fmt.Printf("## %s: attempted %d, failed %d\n", r.name, r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Printf("#  FAILED %s\n", e)
	}
	for _, def := range r.defs {
		fmt.Printf("%-30s %16.4f %s\n", def.name, r.metrics[def.name], def.unit)
	}
	fmt.Println(string(line))
	return nil
}

// manifest is the part of BENCHMARK.json the self-check needs.
type manifest struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// apart is how far two readings of one metric lie from each other, as a
// share of the smaller: whichever reading were the baseline, the other is at
// most this much worse. A reading that is zero, negative or not a number
// has no such share and is infinitely far from anything.
func apart(x, y float64) float64 {
	lo, hi := min(x, y), max(x, y)
	if !(lo > 0) || math.IsInf(hi, 0) {
		return math.Inf(1)
	}
	return (hi - lo) / lo
}

// selfcheck runs the set twice back to back and holds the two medians of
// every workload × end-to-end metric against the metric's bound, in both
// directions.
func selfcheck(specs []workloadSpec, opt options, manifestPath string) (bool, error) {
	raw, err := os.ReadFile(manifestPath)
	if err != nil {
		return false, err
	}
	var man manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return false, fmt.Errorf("%s: %w", manifestPath, err)
	}
	var sets [2][]*result
	for i := range sets {
		for j := range specs {
			res, err := runWorkload(&specs[j], opt)
			if err != nil {
				return false, err
			}
			sets[i] = append(sets[i], res)
		}
	}
	ok := true
	fmt.Printf("%-12s %-18s %14s %14s %8s %7s\n", "workload", "metric", "first", "second", "apart", "bound")
	for j := range specs {
		a, b := sets[0][j], sets[1][j]
		if a.bad() || b.bad() {
			fmt.Printf("%-12s failed operations: %d then %d\n", a.name, a.failed, b.failed)
			ok = false
		}
		for _, m := range man.EndToEnd {
			x, y := a.metrics[m.Name], b.metrics[m.Name]
			d := apart(x, y)
			verdict := ""
			if !(d <= m.Bound) { // also catches NaN
				verdict = "  EXCEEDS"
				ok = false
			}
			fmt.Printf("%-12s %-18s %14.4f %14.4f %7.1f%% %6.0f%%%s\n",
				a.name, m.Name, x, y, 100*d, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}

func main() {
	if len(os.Args) == 3 && os.Args[1] == spinArg {
		cpu, err := strconv.Atoi(os.Args[2])
		if err == nil {
			err = spin(cpu)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: spinner:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run())
}

// run is the command; it returns the exit code, so that the spinners are
// stopped on every way out.
func run() int {
	var (
		opt       options
		short     = flag.Bool("short", false, "tiny packet counts, for tests")
		only      = flag.String("workload", "", "run only this workload (default: all)")
		trace     = flag.Int("trace", 0, "1 = traced run: per-layer metrics and a span file per workload")
		check     = flag.Bool("selfcheck", false, "run the set twice and compare the medians within the bounds")
		benchJSON = flag.String("manifest", "../BENCHMARK.json", "BENCHMARK.json, read by -selfcheck for the bounds")
	)
	flag.Int64Var(&opt.seed, "seed", 42, "picks which flow arrivals and keys make the traces; reaches nothing else")
	flag.Float64Var(&opt.seconds, "seconds", 15, "timed-phase seconds per workload; reps repeat until they add up to it")
	flag.StringVar(&opt.outDir, "out", "bench-out", "directory the traced run writes span files into")
	flag.Parse()
	opt.trace = *trace != 0
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	specs := workloads(*short)
	if *only != "" {
		var picked []workloadSpec
		for _, w := range specs {
			if w.name == *only {
				picked = append(picked, w)
			}
		}
		if len(picked) == 0 {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *only)
			return 2
		}
		specs = picked
	}

	stop, err := keepAwake()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer stop()

	if *check {
		ok, err := selfcheck(specs, opt, *benchJSON)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		if !ok {
			return 1
		}
		return 0
	}

	failed := false
	for i := range specs {
		res, err := runWorkload(&specs[i], opt)
		if err == nil {
			err = res.print()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		failed = failed || res.bad()
	}
	if failed {
		return 1
	}
	return 0
}
