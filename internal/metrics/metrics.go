// Package metrics collects and renders the statistics the evaluation
// harness reports: sample distributions (CDFs, percentiles) held in a
// fixed-size histogram, fixed-width tables, and simple x/y series in the
// text form the benchmark binary prints.
package metrics

import (
	"fmt"
	"math"
	"strings"
)

// The histogram's shape is a constant, not a setting: distSub sub-buckets
// per power of two from 2^distMinExp (just under 1 ns, in seconds) up to
// 2^(distMinExp+distOctaves) (about three days).
const (
	distSubBits = 5
	distSub     = 1 << distSubBits
	distMinExp  = -30
	distOctaves = 48
	distBuckets = distOctaves * distSub
	// distBase is the float64 bit pattern of 2^distMinExp shifted down to
	// its exponent and top distSubBits mantissa bits: bucket 0's key.
	distBase = (1023 + distMinExp) << distSubBits
)

// distRelErr bounds how far above the exact nearest-rank sample a
// Percentile may read, relative to that sample: one sub-bucket's width.
const distRelErr = 1.0 / distSub

// Dist accumulates float64 samples in a fixed 12 KB of state and answers
// distribution queries. N, Sum, Mean, Min and Max are exact. Percentiles
// come from log-linear bucket counts: a percentile reads the upper edge of
// the bucket its nearest-rank sample fell in, clamped to [Min, Max], so
// for samples in [2^-30, 2^18) it is never below the exact value and at
// most 1/32 (3.2%) above it. Samples outside that range (zero and
// negatives included) are counted in the end buckets.
//
// A Dist is a plain value with no pointer inside: copying one takes a
// snapshot independent of its source, and the zero value is empty and
// ready. It is not synchronized; a Dist written by one goroutine and read
// by another needs the caller's lock around both.
type Dist struct {
	n        uint64
	sum      float64
	min, max float64
	counts   [distBuckets]uint64
}

// bucketOf maps a sample to its bucket. A positive float64's bits order
// as the value does, so exponent and leading mantissa bits are the index.
func bucketOf(v float64) int {
	if !(v > 0) {
		return 0
	}
	i := int(math.Float64bits(v)>>(52-distSubBits)) - distBase
	return max(0, min(i, distBuckets-1))
}

// bucketUpper is the exclusive upper edge of bucket i.
func bucketUpper(i int) float64 {
	return math.Float64frombits(uint64(i+1+distBase) << (52 - distSubBits))
}

// Add records a sample.
func (d *Dist) Add(v float64) {
	if d.n == 0 || v < d.min {
		d.min = v
	}
	if d.n == 0 || v > d.max {
		d.max = v
	}
	d.n++
	d.sum += v
	d.counts[bucketOf(v)]++
}

// N returns the sample count.
func (d *Dist) N() int { return int(d.n) }

// Sum returns the sum of all samples.
func (d *Dist) Sum() float64 { return d.sum }

// Merge adds all of o's samples into d, as if each had been Added.
func (d *Dist) Merge(o *Dist) {
	if o == nil || o.n == 0 {
		return
	}
	if d.n == 0 || o.min < d.min {
		d.min = o.min
	}
	if d.n == 0 || o.max > d.max {
		d.max = o.max
	}
	d.n += o.n
	d.sum += o.sum
	for i, hi := bucketOf(o.min), bucketOf(o.max); i <= hi; i++ {
		d.counts[i] += o.counts[i]
	}
}

// Mean returns the sample mean (0 with no samples).
func (d *Dist) Mean() float64 {
	if d.n == 0 {
		return 0
	}
	return d.sum / float64(d.n)
}

// Percentile returns the p-th percentile (p in [0,100]) by nearest rank
// over the bucket counts (see Dist for the precision), or 0 with no
// samples.
func (d *Dist) Percentile(p float64) float64 {
	if d.n == 0 {
		return 0
	}
	if p <= 0 {
		return d.min
	}
	rank := uint64(math.Ceil(p / 100 * float64(d.n)))
	hi := bucketOf(d.max)
	var seen uint64
	for i := bucketOf(d.min); i < hi; i++ {
		if seen += d.counts[i]; seen >= rank {
			return bucketUpper(i)
		}
	}
	return d.max
}

// Quantile returns the q-th quantile (q in [0,1]); equivalent to
// Percentile(q*100).
func (d *Dist) Quantile(q float64) float64 { return d.Percentile(q * 100) }

// Min returns the smallest sample (0 with no samples).
func (d *Dist) Min() float64 { return d.min }

// Max returns the largest sample (0 with no samples).
func (d *Dist) Max() float64 { return d.max }

// CDF returns (value, fraction ≤ value) pairs at the given fractions
// (each in [0,1]).
func (d *Dist) CDF(fractions []float64) [][2]float64 {
	out := make([][2]float64, 0, len(fractions))
	for _, f := range fractions {
		out = append(out, [2]float64{d.Percentile(f * 100), f})
	}
	return out
}

// Quantiles is the standard set of CDF points the harness prints.
var Quantiles = []float64{0.01, 0.05, 0.10, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99, 1.0}

// --- Rendering ---------------------------------------------------------------

// Table renders rows with aligned columns. The first row is the header.
type Table struct {
	rows [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// AddRowf appends a row formatting each value with %v.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = FormatFloat(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table with two-space gutters.
func (t *Table) String() string {
	if len(t.rows) == 0 {
		return ""
	}
	cols := 0
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	for ri, r := range t.rows {
		for i, c := range r {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(r)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
		if ri == 0 {
			total := 0
			for i, w := range widths {
				if i > 0 {
					total += 2
				}
				total += w
			}
			b.WriteString(strings.Repeat("-", total))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// FormatFloat renders a float compactly: integers without decimals, small
// values with enough precision to be readable.
func FormatFloat(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 0.01:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// FormatDuration renders seconds in engineering units (µs/ms/s).
func FormatDuration(sec float64) string {
	switch {
	case sec < 1e-3:
		return fmt.Sprintf("%.1fµs", sec*1e6)
	case sec < 1:
		return fmt.Sprintf("%.2fms", sec*1e3)
	default:
		return fmt.Sprintf("%.3fs", sec)
	}
}

// Series renders an x→y mapping as "x<tab>y" lines with a header, the form
// the figure benches print for plotting.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	points [][2]float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) { s.points = append(s.points, [2]float64{x, y}) }

// Points returns the accumulated points.
func (s *Series) Points() [][2]float64 { return s.points }

// String renders the series.
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# series %s: %s vs %s\n", s.Name, s.YLabel, s.XLabel)
	for _, p := range s.points {
		fmt.Fprintf(&b, "%s\t%s\n", FormatFloat(p[0]), FormatFloat(p[1]))
	}
	return b.String()
}

// Counter is a labeled monotonically increasing count.
type Counter struct {
	Name  string
	Value uint64
}

// Inc adds n.
func (c *Counter) Inc(n uint64) { c.Value += n }
