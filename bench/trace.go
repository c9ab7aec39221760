package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// a public function. Spans of one op share Op; Parent is the ID of the
// enclosing span (-1 for the op's root).
type span struct {
	Op         int    `json:"op"`
	ID         int    `json:"id"`
	Parent     int    `json:"parent"`
	Name       string `json:"name"`
	StartNs    int64  `json:"start_ns"`
	EndNs      int64  `json:"end_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

func (s span) ms() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// tracer keeps every span in memory until the run ends. A nil tracer
// records nothing, which is how the untraced loop shares code with the
// traced one.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // stack of open span IDs
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// do runs fn inside a span named name. The heap counter is read outside
// the span's clock, so a leaf span's duration excludes the (stop-the-
// world) MemStats reads; an enclosing span's duration includes its
// children's reads, which is what trace.overhead_pct reports.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name})
	t.open = append(t.open, id)
	alloc0 := totalAlloc()
	start := time.Since(t.epoch)
	err := fn()
	end := time.Since(t.epoch)
	s := &t.spans[id]
	s.StartNs, s.EndNs = start.Nanoseconds(), end.Nanoseconds()
	s.AllocBytes = totalAlloc() - alloc0
	t.open = t.open[:len(t.open)-1]
	return err
}

// run is do for a call that cannot fail.
func (t *tracer) run(name string, fn func()) {
	_ = t.do(name, func() error {
		fn()
		return nil
	})
}

// opSums folds the spans of each op into per-name totals (an op may
// enter a layer several times, e.g. one pause per pre-copy round).
type opSum struct {
	ms    map[string]float64
	alloc map[string]uint64
}

func (t *tracer) byOp() map[int]*opSum {
	out := map[int]*opSum{}
	for _, s := range t.spans {
		o := out[s.Op]
		if o == nil {
			o = &opSum{ms: map[string]float64{}, alloc: map[string]uint64{}}
			out[s.Op] = o
		}
		o.ms[s.Name] += s.ms()
		o.alloc[s.Name] += s.AllocBytes
	}
	return out
}

// write stores the spans as JSON at path, creating its directory.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
