package metrics

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

func TestDistBasics(t *testing.T) {
	var d Dist
	if d.N() != 0 || d.Mean() != 0 || d.Percentile(50) != 0 {
		t.Fatal("empty dist must answer zeros")
	}
	for _, v := range []float64{3, 1, 2} {
		d.Add(v)
	}
	if d.N() != 3 || d.Sum() != 6 || d.Mean() != 2 {
		t.Fatalf("n=%d sum=%v mean=%v", d.N(), d.Sum(), d.Mean())
	}
	if d.Min() != 1 || d.Max() != 3 {
		t.Fatalf("min=%v max=%v", d.Min(), d.Max())
	}
}

// exactDist is the sort-the-samples distribution Dist used to be, kept as
// the reference the histogram is checked against.
type exactDist []float64

func (e exactDist) percentile(p float64) float64 {
	sorted := append([]float64(nil), e...)
	sort.Float64s(sorted)
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

func (e exactDist) sum() (s float64) {
	for _, v := range e {
		s += v
	}
	return s
}

func distOf(samples []float64) *Dist {
	d := new(Dist)
	for _, v := range samples {
		d.Add(v)
	}
	return d
}

// sampleSets are the shapes the repo feeds a Dist, all inside the
// histogram's range: latencies in seconds, stretch ratios, rule counts.
func sampleSets() map[string][]float64 {
	rng := rand.New(rand.NewSource(19))
	sets := map[string][]float64{"constant": nil, "two-point": nil, "sweep": nil}
	for i := 0; i < 5000; i++ {
		sets["uniform"] = append(sets["uniform"], 1+99*rng.Float64())
		sets["log-normal"] = append(sets["log-normal"], 100e-6*math.Exp(rng.NormFloat64()))
		sets["constant"] = append(sets["constant"], 0.4e-3)
		// The simulator's latencies: a cache hit or an authority detour.
		sets["two-point"] = append(sets["two-point"], []float64{0.4e-3, 3.0e-3}[i%4/3])
	}
	for v := 1e-9; v <= 100; v *= 1.07 {
		sets["sweep"] = append(sets["sweep"], v)
	}
	return sets
}

// TestPercentileNearestRank checks the histogram against the exact
// nearest-rank reference: every printed percentile is at or above the
// exact sample, above it by at most distRelErr, and never outside
// [Min, Max]; count, sum, mean and the extremes are exact.
func TestPercentileNearestRank(t *testing.T) {
	for name, samples := range sampleSets() {
		d, ref := distOf(samples), exactDist(samples)
		if d.N() != len(samples) || d.Sum() != ref.sum() || d.Mean() != ref.sum()/float64(len(samples)) {
			t.Errorf("%s: n=%d sum=%v mean=%v, want %d %v", name, d.N(), d.Sum(), d.Mean(), len(samples), ref.sum())
		}
		if d.Min() != ref.percentile(0) || d.Max() != ref.percentile(100) {
			t.Errorf("%s: min=%v max=%v, want %v %v", name, d.Min(), d.Max(), ref.percentile(0), ref.percentile(100))
		}
		for _, q := range append([]float64{0}, Quantiles...) {
			got, want := d.Quantile(q), ref.percentile(q*100)
			if got < want || got > want*(1+distRelErr) || got < d.Min() || got > d.Max() {
				t.Errorf("%s: q%v = %v, exact %v (min %v max %v)", name, q, got, want, d.Min(), d.Max())
			}
		}
	}
	// 1..100 is the old exact-value case: the ends and any power of two
	// still read exactly, the rest within the bound.
	d := distOf(sampleRange(1, 100))
	for p, want := range map[float64]float64{0: 1, 1: 1, 64: 64, 100: 100} {
		if got := d.Percentile(p); got < want || got > want*(1+distRelErr) {
			t.Errorf("p%v = %v want %v", p, got, want)
		}
	}
}

func sampleRange(lo, hi int) (out []float64) {
	for i := lo; i <= hi; i++ {
		out = append(out, float64(i))
	}
	return out
}

// TestDistMergeEqualsAddingBoth: merging is bucket-exact, so a merged
// Dist is indistinguishable from one that was handed both sample sets, in
// either order, and merging an empty or nil Dist changes nothing.
func TestDistMergeEqualsAddingBoth(t *testing.T) {
	sets := sampleSets()
	a, b := sets["log-normal"], sets["sweep"]
	both := distOf(append(append([]float64(nil), a...), b...))
	ab, ba := distOf(a), distOf(b)
	ab.Merge(distOf(b))
	ba.Merge(distOf(a))
	for name, m := range map[string]*Dist{"a+b": ab, "b+a": ba} {
		if m.counts != both.counts || m.n != both.n || m.min != both.min || m.max != both.max {
			t.Errorf("%s differs from adding both sample sets", name)
		}
		if math.Abs(m.sum-both.sum) > 1e-9*both.sum {
			t.Errorf("%s sum = %v want %v", name, m.sum, both.sum)
		}
	}
	before := *ab
	ab.Merge(new(Dist))
	ab.Merge(nil)
	if *ab != before {
		t.Error("merging an empty Dist changed the target")
	}
	var empty Dist
	empty.Merge(distOf(a))
	if empty != *distOf(a) {
		t.Error("merging into the zero Dist must equal the source")
	}
}

// TestDistEndBuckets: values the histogram cannot resolve are still
// counted, summed and bounded by the exact extremes, and nothing panics.
func TestDistEndBuckets(t *testing.T) {
	odd := []float64{0, -3, 1e-12, 5e-324, 1e9, math.MaxFloat64, math.Inf(1)}
	d := distOf(odd)
	if d.N() != len(odd) || d.Min() != -3 || !math.IsInf(d.Max(), 1) {
		t.Fatalf("n=%d min=%v max=%v", d.N(), d.Min(), d.Max())
	}
	if d.counts[0] != 4 || d.counts[distBuckets-1] != 3 {
		t.Fatalf("end buckets hold %d and %d samples, want 4 and 3", d.counts[0], d.counts[distBuckets-1])
	}
	for _, q := range Quantiles {
		if got := d.Quantile(q); got < d.Min() || got > d.Max() {
			t.Errorf("q%v = %v outside [min, max]", q, got)
		}
	}
	var nan Dist
	nan.Add(math.NaN())
	if nan.N() != 1 || nan.counts[0] != 1 {
		t.Error("NaN must land in the first bucket")
	}
	// The edges of the resolved range fall where the doc comment says.
	if bucketOf(math.Ldexp(1, distMinExp)) != 0 || bucketOf(1e-9) != 2 ||
		bucketOf(math.Nextafter(math.Ldexp(1, distMinExp+distOctaves), 0)) != distBuckets-1 {
		t.Error("bucket range moved")
	}
}

func TestPercentileAfterInterleavedAdds(t *testing.T) {
	var d Dist
	d.Add(5)
	if d.Percentile(50) != 5 {
		t.Fatal("median of one sample")
	}
	d.Add(1) // must re-sort
	if d.Min() != 1 {
		t.Fatal("adding after a query must invalidate sorting")
	}
}

func TestQuantilesMonotone(t *testing.T) {
	var d Dist
	rng := rand.New(rand.NewSource(53))
	for i := 0; i < 1000; i++ {
		d.Add(rng.ExpFloat64())
	}
	for i := 1; i < len(Quantiles); i++ {
		if d.Quantile(Quantiles[i]) < d.Quantile(Quantiles[i-1]) {
			t.Fatalf("quantile %g reads below quantile %g", Quantiles[i], Quantiles[i-1])
		}
	}
	if Quantiles[len(Quantiles)-1] != 1.0 || d.Quantile(1) != d.Max() {
		t.Fatal("the last quantile must be 1.0, read as the maximum")
	}
}

func TestTableRendering(t *testing.T) {
	var tb Table
	tb.AddRow("name", "rules", "hit%")
	tb.AddRowf("campus", 12345, 97.25)
	tb.AddRowf("vpn", 900, 80.0)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("expected header + rule + 2 rows, got %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("second line must be a rule: %q", lines[1])
	}
	if !strings.Contains(lines[2], "campus") || !strings.Contains(lines[2], "12345") {
		t.Fatalf("row content missing: %q", lines[2])
	}
	var empty Table
	if empty.String() != "" {
		t.Fatal("empty table must render empty")
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		3:       "3",
		1000000: "1000000",
		123.456: "123.5",
		0.5:     "0.500",
		0.0001:  "0.0001",
	}
	for v, want := range cases {
		if got := FormatFloat(v); got != want {
			t.Fatalf("FormatFloat(%v) = %q want %q", v, got, want)
		}
	}
}

func TestFormatDuration(t *testing.T) {
	if got := FormatDuration(0.0000005); got != "0.5µs" {
		t.Fatalf("got %q", got)
	}
	if got := FormatDuration(0.0042); got != "4.20ms" {
		t.Fatalf("got %q", got)
	}
	if got := FormatDuration(2.5); got != "2.500s" {
		t.Fatalf("got %q", got)
	}
}

// TestDistClone: a Dist is a value, so a copy is a snapshot — querying it
// leaves the source alone and growing the source leaves it alone.
func TestDistClone(t *testing.T) {
	d := distOf([]float64{3, 1, 2})
	c := *d
	if got := c.Percentile(50); got < 2 || got > 2*(1+distRelErr) {
		t.Errorf("copy p50 = %v", got)
	}
	d.Add(10)
	if c.N() != 3 || d.N() != 4 {
		t.Errorf("copy shares storage: copy n=%d orig n=%d", c.N(), d.N())
	}
	if c.Sum() != 6 || d.Sum() != 16 || c.Max() != 3 || d.Max() != 10 {
		t.Errorf("copy sum=%v max=%v, orig sum=%v max=%v", c.Sum(), c.Max(), d.Sum(), d.Max())
	}
}

// TestDistAddDoesNotAllocate pins the hot-path rule: recording a latency
// costs no allocation, however many samples came before.
func TestDistAddDoesNotAllocate(t *testing.T) {
	var d Dist
	v := 1e-6
	if n := testing.AllocsPerRun(1000, func() { d.Add(v); v *= 1.01 }); n != 0 {
		t.Fatalf("Dist.Add allocates %v times per call", n)
	}
}
