package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

func TestTraceIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads(true) {
		a, err := buildTrace(&w, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildTrace(&w, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different traces", w.name)
		}
		c, err := buildTrace(&w, 8)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.packets, c.packets) {
			t.Errorf("%s: seeds 7 and 8 gave the same packets", w.name)
		}
		// The policy is the workload's fixed structure, not an input the
		// seed varies (see buildTrace).
		if !reflect.DeepEqual(a.policy, c.policy) {
			t.Errorf("%s: the policy changed with the seed", w.name)
		}
	}
}

func TestCursorCountsWhatTheOracleExpects(t *testing.T) {
	w := workloads(true)[0]
	tr, err := buildTrace(&w, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Walk more than one lap in odd-sized windows; the running counts must
	// equal a direct recount of the packets handed out.
	cur := &cursor{tr: tr}
	var delivered, dropped uint64
	for cur.sent < uint64(2*tr.n) {
		for _, p := range cur.next(1000) {
			if _, ok := tr.egress[p.Key]; ok {
				delivered++
			} else {
				dropped++
			}
		}
	}
	if cur.delivered != delivered || cur.dropped != dropped {
		t.Errorf("cursor says %d delivered %d dropped, recount says %d and %d",
			cur.delivered, cur.dropped, delivered, dropped)
	}
	if delivered == 0 || dropped == 0 {
		t.Errorf("trace exercises one verdict only: %d delivered, %d dropped", delivered, dropped)
	}
}

func TestNoWindowExceedsTheQueue(t *testing.T) {
	if warmWindow > queueDepth {
		t.Errorf("warm window %d exceeds queue depth %d", warmWindow, queueDepth)
	}
	for _, short := range []bool{false, true} {
		for _, w := range workloads(short) {
			if !w.paced && (w.window < 1 || w.window > queueDepth) {
				t.Errorf("%s: window %d outside [1, %d]", w.name, w.window, queueDepth)
			}
			if !w.paced && w.blockWindows < 1 {
				t.Errorf("%s: a block of %d windows", w.name, w.blockWindows)
			}
			if w.cacheCap > 0 && w.window > installQueue {
				t.Errorf("%s: window %d exceeds the install queue's %d, so installs would be shed", w.name, w.window, installQueue)
			}
			if cfg := clusterConfig(&w, nil); cfg.QueueDepth != queueDepth {
				t.Errorf("%s: deployment queue depth %d, want %d", w.name, cfg.QueueDepth, queueDepth)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestApart(t *testing.T) {
	for _, c := range []struct{ x, y, want float64 }{
		{100, 100, 0},
		{100, 125, 0.25},
		{125, 100, 0.25}, // the same whichever reading came first
		{60, 100, 2.0 / 3},
		{0, 100, math.Inf(1)},
		{100, 0, math.Inf(1)},
		{-1, 100, math.Inf(1)},
		{math.NaN(), 100, math.Inf(1)},
		{100, math.NaN(), math.Inf(1)},
		{100, math.Inf(1), math.Inf(1)},
	} {
		if got := apart(c.x, c.y); got != c.want {
			t.Errorf("apart(%v, %v) = %v, want %v", c.x, c.y, got, c.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("no samples gave %v", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 40},
		{ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps span 2 by 10
		{ID: 4, Parent: 1, Start: 80, End: 90},
		{ID: 5, Parent: 2, Start: 15, End: 20}, // a grandchild is its parent's business
	}
	fillSelfTimes(spans)
	want := map[int]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 10, 5: 5}
	for _, s := range spans {
		if s.Self != want[s.ID] {
			t.Errorf("span %d self time %d, want %d", s.ID, s.Self, want[s.ID])
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tz := newTracer()
	outer := tz.begin("outer", 0)
	a := tz.begin("call", 3)
	tz.end(a)
	b := tz.begin("call", 5)
	tz.end(b)
	tz.end(outer)
	if tz.spans[a-1].Parent != outer || tz.spans[b-1].Parent != outer || tz.spans[outer-1].Parent != 0 {
		t.Errorf("wrong parents: %+v", tz.spans)
	}
	if _, packets := tz.total("outer", "call"); packets != 8 {
		t.Errorf("total packets %d, want 8", packets)
	}
	if got, want := tz.lastMS("call"), float64(tz.spans[b-1].End-tz.spans[b-1].Start)/1e6; got != want {
		t.Errorf("lastMS gave %v, the second call took %v", got, want)
	}
	var off *tracer
	off.end(off.begin("ignored", 1)) // a nil tracer records nothing and does not panic
}

// benchmarkJSON mirrors the whole of ../BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestShortRunEmitsExactlyTheManifest runs the -short set, untraced and
// traced, and holds what it prints against BENCHMARK.json: the same
// workloads, the same metric names, each with its unit, and nothing else.
func TestShortRunEmitsExactlyTheManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man benchmarkJSON
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	specs := workloads(true)
	if len(specs) != len(man.Workloads) {
		t.Fatalf("%d workloads run, %d in the manifest", len(specs), len(man.Workloads))
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range man.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range man.PerLayer {
		layer[m.Name] = m.Unit
	}
	for n, u := range mergeMaps(e2e, layer) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("metric %q with unit %q breaks the manifest's naming rules", n, u)
		}
	}

	for i, w := range specs {
		if w.name != man.Workloads[i].Name || w.why != man.Workloads[i].Why {
			t.Errorf("workload %d is %q (%q), the manifest says %q (%q)",
				i, w.name, w.why, man.Workloads[i].Name, man.Workloads[i].Why)
		}
		if len(w.why) > 200 || !name.MatchString(w.name) {
			t.Errorf("%s: name or why breaks the manifest's rules", w.name)
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(&w, options{seed: 7, trace: traced, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if res.bad() || res.attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w.name, traced, res.attempted, res.failed, res.errs)
			}
			line, err := res.jsonLine()
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Metrics map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			for n, m := range out.Metrics {
				if m.Value == nil {
					t.Errorf("%s: %s has no value", w.name, n)
				}
				got[n] = m.Unit
			}
			want := e2e
			if traced {
				want = layer
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s traced=%v printed\n%v\nthe manifest lists\n%v", w.name, traced, sortedKeys(got), sortedKeys(want))
			}
		}
	}
}

func mergeMaps(ms ...map[string]string) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k, v := range m {
		keys = append(keys, k+" "+v)
	}
	sort.Strings(keys)
	return keys
}
