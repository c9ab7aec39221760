package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	reg := New()
	c := reg.Counter("x")
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}
	if reg.Counter("x") != c {
		t.Error("same name returned a different counter")
	}
	if reg.Counter("y") == c {
		t.Error("different name returned the same counter")
	}
}

func TestCounterConcurrent(t *testing.T) {
	reg := New()
	c := reg.Counter("x")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	reg := New()
	h := reg.Histogram("lat")
	// 90 fast observations, 10 slow: p50 must land near the fast cluster,
	// p99 near the slow one, and the estimates must be monotone.
	for i := 0; i < 90; i++ {
		h.Observe(1 * time.Microsecond)
	}
	for i := 0; i < 10; i++ {
		h.Observe(1 * time.Millisecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	p50, p95, p99 := h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
	if p50 <= 0 || p95 <= 0 || p99 <= 0 {
		t.Fatalf("non-positive percentile: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if p50 > p95 || p95 > p99 {
		t.Errorf("percentiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if p50 < 500*time.Nanosecond || p50 > 2*time.Microsecond {
		t.Errorf("p50 = %v, want within a bucket of 1µs", p50)
	}
	if p99 < 500*time.Microsecond || p99 > 2*time.Millisecond {
		t.Errorf("p99 = %v, want within a bucket of 1ms", p99)
	}
}

func TestHistogramZeroAndNegative(t *testing.T) {
	reg := New()
	h := reg.Histogram("lat")
	h.Observe(0)
	h.Observe(-time.Second)
	if h.Count() != 2 {
		t.Errorf("count = %d, want 2", h.Count())
	}
	if q := h.Quantile(0.99); q != 0 {
		t.Errorf("all-zero histogram p99 = %v, want 0", q)
	}
}

func TestSpanTree(t *testing.T) {
	reg := New()
	root := reg.NewSpan("migration")
	down := root.Child("downtime")
	down.Child("checkpoint").Finish(10 * time.Millisecond)
	down.Child("copy").Finish(30 * time.Millisecond)
	down.Finish(40 * time.Millisecond)
	root.Finish(40 * time.Millisecond)

	rep := reg.Report()
	rootEv, ok := rep.Span("migration")
	if !ok {
		t.Fatal("missing root span")
	}
	if rootEv.Parent != 0 {
		t.Errorf("root has parent %d", rootEv.Parent)
	}
	downEv, ok := rep.Span("downtime")
	if !ok || downEv.Parent != rootEv.ID {
		t.Fatalf("downtime span parent = %d, want %d", downEv.Parent, rootEv.ID)
	}
	var sum time.Duration
	for _, k := range rep.Children(downEv.ID) {
		sum += k.Dur()
	}
	if sum != 40*time.Millisecond {
		t.Errorf("children sum %v, want 40ms", sum)
	}
	text := rep.Text()
	for _, want := range []string{"migration", "downtime", "checkpoint", "copy"} {
		if !strings.Contains(text, want) {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
}

func TestSpanWallClock(t *testing.T) {
	reg := New()
	sp := reg.NewSpan("work")
	time.Sleep(2 * time.Millisecond)
	sp.End()
	rep := reg.Report()
	if ev, _ := rep.Span("work"); ev.Dur() < time.Millisecond {
		t.Errorf("wall span = %v, want >= 1ms", ev.Dur())
	}
}

func TestSpanFinishOnce(t *testing.T) {
	reg := New()
	sp := reg.NewSpan("once")
	sp.Finish(time.Second)
	sp.Finish(2 * time.Second)
	sp.End()
	rep := reg.Report()
	if n := len(rep.Spans); n != 1 {
		t.Fatalf("%d events recorded, want 1", n)
	}
	if ev, _ := rep.Span("once"); ev.Dur() != time.Second {
		t.Errorf("span dur = %v, want the first Finish (1s)", ev.Dur())
	}
}

func TestRingBounded(t *testing.T) {
	reg := New()
	for i := 0; i < DefaultRingCap+100; i++ {
		reg.NewSpan(fmt.Sprintf("s%d", i)).Finish(time.Millisecond)
	}
	rep := reg.Report()
	if len(rep.Spans) != DefaultRingCap {
		t.Errorf("ring holds %d events, want %d", len(rep.Spans), DefaultRingCap)
	}
	if rep.DroppedSpans != 100 {
		t.Errorf("dropped = %d, want 100", rep.DroppedSpans)
	}
	// Oldest dropped, newest kept.
	if _, ok := rep.Span("s0"); ok {
		t.Error("oldest event survived a full ring")
	}
	if _, ok := rep.Span(fmt.Sprintf("s%d", DefaultRingCap+99)); !ok {
		t.Error("newest event missing")
	}
}

// TestNilRegistryNoOps: the disabled registry is a nil pointer and every
// operation on it (and on the instruments it hands out) must be a safe
// no-op — this is the "cheap enough to leave enabled" contract.
func TestNilRegistryNoOps(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	h := reg.Histogram("y")
	h.Observe(time.Second)
	if h.Count() != 0 || h.Quantile(0.5) != 0 || h.Sum() != 0 {
		t.Error("nil histogram recorded")
	}
	sp := reg.NewSpan("root")
	child := sp.Child("child")
	child.End()
	sp.Finish(time.Second)
	rep := reg.Report()
	if len(rep.Spans) != 0 || len(rep.Counters) != 0 || len(rep.Histograms) != 0 {
		t.Error("nil registry produced a non-empty report")
	}
	if rep.Text() == "" {
		t.Error("empty report Text() is empty string")
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	reg := New()
	reg.Counter("a").Add(7)
	reg.Histogram("h").Observe(3 * time.Millisecond)
	reg.NewSpan("root").Finish(time.Second)
	data, err := reg.Report().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a"] != 7 {
		t.Errorf("counter a = %d after round trip, want 7", back.Counters["a"])
	}
	if back.Histograms["h"].Count != 1 {
		t.Errorf("histogram count = %d, want 1", back.Histograms["h"].Count)
	}
	if ev, _ := back.Span("root"); ev.Dur() != time.Second {
		t.Errorf("span dur = %v, want 1s", ev.Dur())
	}
}

// BenchmarkObsOverhead quantifies the acceptance bound: recording against
// the disabled (nil) registry must cost ≤ 5 ns/op, cheap enough to leave
// instrumentation compiled in everywhere.
func BenchmarkObsOverhead(b *testing.B) {
	b.Run("DisabledCounter", func(b *testing.B) {
		var reg *Registry
		c := reg.Counter("x")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("DisabledHistogram", func(b *testing.B) {
		var reg *Registry
		h := reg.Histogram("x")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(time.Microsecond)
		}
	})
	b.Run("DisabledSpan", func(b *testing.B) {
		var reg *Registry
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sp := reg.NewSpan("s")
			sp.End()
		}
	})
	b.Run("EnabledCounter", func(b *testing.B) {
		reg := New()
		c := reg.Counter("x")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("EnabledHistogram", func(b *testing.B) {
		reg := New()
		h := reg.Histogram("x")
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(time.Microsecond)
		}
	})
}
