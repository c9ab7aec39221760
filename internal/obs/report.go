package obs

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// SpanEvent is one finished span as stored in the ring. Parent is 0 for
// root spans. StartNs is relative to the registry's creation; for
// modeled (Finish-ed) spans it reflects when the span object was created,
// which orders siblings but carries no wall meaning.
type SpanEvent struct {
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// Dur returns the span duration.
func (e SpanEvent) Dur() time.Duration { return time.Duration(e.DurNs) }

// HistSnapshot is a histogram's exported summary.
type HistSnapshot struct {
	Count uint64 `json:"count"`
	SumNs int64  `json:"sum_ns"`
	P50Ns int64  `json:"p50_ns"`
	P95Ns int64  `json:"p95_ns"`
	P99Ns int64  `json:"p99_ns"`
}

// Report is a point-in-time snapshot of a registry, safe to keep after
// the instrumented components are gone and serializable as JSON.
type Report struct {
	Counters     map[string]uint64       `json:"counters"`
	Histograms   map[string]HistSnapshot `json:"histograms"`
	Spans        []SpanEvent             `json:"spans"`
	DroppedSpans uint64                  `json:"dropped_spans,omitempty"`
}

// Report snapshots the registry. A disabled (nil) registry yields an
// empty, non-nil report so consumers need not special-case it.
func (r *Registry) Report() *Report {
	rep := &Report{
		Counters:   map[string]uint64{},
		Histograms: map[string]HistSnapshot{},
	}
	if r == nil {
		return rep
	}
	r.mu.Lock()
	for name, c := range r.counters {
		rep.Counters[name] = c.Value()
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	rep.Spans = append([]SpanEvent(nil), r.ring...)
	rep.DroppedSpans = r.dropped
	r.mu.Unlock()
	for name, h := range hists {
		rep.Histograms[name] = HistSnapshot{
			Count: h.Count(),
			SumNs: h.Sum().Nanoseconds(),
			P50Ns: h.Quantile(0.50).Nanoseconds(),
			P95Ns: h.Quantile(0.95).Nanoseconds(),
			P99Ns: h.Quantile(0.99).Nanoseconds(),
		}
	}
	return rep
}

// Span returns the first finished span with the given name.
func (rep *Report) Span(name string) (SpanEvent, bool) {
	for _, ev := range rep.Spans {
		if ev.Name == name {
			return ev, true
		}
	}
	return SpanEvent{}, false
}

// Child returns the first finished child of span parent with the given
// name. Names repeat across trees (the modeled "migration" tree and the
// host "migrate.host" tree both have a "downtime"), so a lookup that must
// land in one tree goes through that tree's root.
func (rep *Report) Child(parent uint64, name string) (SpanEvent, bool) {
	for _, ev := range rep.Children(parent) {
		if ev.Name == name {
			return ev, true
		}
	}
	return SpanEvent{}, false
}

// Children returns the spans whose parent is id, in completion order.
func (rep *Report) Children(id uint64) []SpanEvent {
	var out []SpanEvent
	for _, ev := range rep.Spans {
		if ev.Parent == id && ev.ID != id {
			out = append(out, ev)
		}
	}
	return out
}

// JSON renders the report as indented JSON.
func (rep *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(rep, "", "  ")
}

// Text renders the report for humans: sorted counters, histogram
// percentiles, and the span tree with durations.
func (rep *Report) Text() string {
	var sb strings.Builder
	if len(rep.Counters) > 0 {
		sb.WriteString("counters:\n")
		names := make([]string, 0, len(rep.Counters))
		for name := range rep.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&sb, "  %-32s %d\n", name, rep.Counters[name])
		}
	}
	if len(rep.Histograms) > 0 {
		sb.WriteString("histograms:\n")
		names := make([]string, 0, len(rep.Histograms))
		for name := range rep.Histograms {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			h := rep.Histograms[name]
			fmt.Fprintf(&sb, "  %-32s n=%d p50=%v p95=%v p99=%v\n",
				name, h.Count, time.Duration(h.P50Ns), time.Duration(h.P95Ns), time.Duration(h.P99Ns))
		}
	}
	if len(rep.Spans) > 0 {
		sb.WriteString("spans:\n")
		// Index children, then render each root's subtree depth-first in
		// completion order.
		kids := make(map[uint64][]SpanEvent)
		ids := make(map[uint64]bool, len(rep.Spans))
		for _, ev := range rep.Spans {
			ids[ev.ID] = true
		}
		var roots []SpanEvent
		for _, ev := range rep.Spans {
			// A span whose parent fell off the ring renders as a root.
			if ev.Parent == 0 || !ids[ev.Parent] {
				roots = append(roots, ev)
			} else {
				kids[ev.Parent] = append(kids[ev.Parent], ev)
			}
		}
		var render func(ev SpanEvent, depth int)
		render = func(ev SpanEvent, depth int) {
			fmt.Fprintf(&sb, "  %s%s %v\n", strings.Repeat("  ", depth), ev.Name, ev.Dur())
			for _, k := range kids[ev.ID] {
				render(k, depth+1)
			}
		}
		for _, root := range roots {
			render(root, 0)
		}
	}
	if rep.DroppedSpans > 0 {
		fmt.Fprintf(&sb, "(%d span events dropped by the ring)\n", rep.DroppedSpans)
	}
	if sb.Len() == 0 {
		return "(empty telemetry report)\n"
	}
	return sb.String()
}
