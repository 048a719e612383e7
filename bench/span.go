package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer, or a phase
// grouping such calls. Times are nanoseconds since the tracer started.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Self    int64  `json:"self_ns"`
	Packets int    `json:"packets"`
}

// tracer records spans in memory from one goroutine; they are written out
// when the run ends. A nil tracer records nothing, so the untraced run pays
// one nil check per call site.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int // stack of open span IDs
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its ID.
func (t *tracer) begin(name string, packets int) int {
	if t == nil {
		return 0
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Packets: packets})
	t.open = append(t.open, id)
	t.spans[id-1].Start = int64(time.Since(t.t0))
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	if len(t.open) == 0 || t.open[len(t.open)-1] != id {
		panic("bench: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id-1].End = now
}

// total sums the durations and packets of every span with the given name
// directly under a span named parent.
func (t *tracer) total(parent, name string) (ns int64, packets int) {
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name == name && s.Parent > 0 && t.spans[s.Parent-1].Name == parent {
			ns += s.End - s.Start
			packets += s.Packets
		}
	}
	return ns, packets
}

// lastMS is the duration in ms of the latest span with the given name (0 if
// there is none).
func (t *tracer) lastMS(name string) float64 {
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Name == name {
			return float64(t.spans[i].End-t.spans[i].Start) / 1e6
		}
	}
	return 0
}

// perPacket is total's time divided by its packets (0 with no packets).
func (t *tracer) perPacket(parent, name string) float64 {
	ns, packets := t.total(parent, name)
	if packets == 0 {
		return 0
	}
	return float64(ns) / float64(packets)
}

// fillSelfTimes sets every span's Self to its duration minus the part of
// that interval its direct children cover (overlapping children are not
// counted twice).
func fillSelfTimes(spans []span) {
	children := make(map[int][]int)
	for i := range spans {
		children[spans[i].Parent] = append(children[spans[i].Parent], i)
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = (s.End - s.Start) - covered
	}
}

// writeJSONL writes the spans, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	fillSelfTimes(t.spans)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
