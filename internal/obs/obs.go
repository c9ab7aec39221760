// Package obs is the migration-path telemetry subsystem: atomic counters,
// fixed-bucket latency histograms with percentile estimates, and nestable
// phase spans collected into a bounded in-memory event ring.
//
// The paper's whole evaluation is about where time goes during a live
// migration (checkpoint, recode, transfer, lazy-fault tail), so every
// component of the migration path — monitor pause protocol, CRIU
// dump/restore, page server and client, cluster vanilla/lazy/pre-copy —
// records into a Registry handed down through its options. Two design
// rules keep it cheap enough to leave enabled:
//
//   - A nil *Registry is the disabled registry. Every method on Registry,
//     Counter, Histogram, and Span is nil-safe, so instrumented code never
//     branches: it calls through unconditionally and a disabled registry
//     costs a nil check (see BenchmarkObsOverhead, ~1 ns/op).
//   - Hot-path instruments are resolved once (Counter/Histogram lookups at
//     construction time) and recorded with a single atomic op; spans
//     allocate one small struct and take one mutex only when they finish.
//
// Spans come in two flavors because the simulator mixes two time scales:
// wall-clock spans (Start/End) measure the host, and fixed-duration spans
// (Child/Finish) record modeled virtual-time phases such as link-transfer
// costs. Both land in the same ring, so a report shows one migration
// end-to-end as a tree.
package obs

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// New creates an enabled registry. The zero *Registry (nil) is the
// disabled registry: all operations on it are no-ops.
func New() *Registry {
	return &Registry{
		epoch:    time.Now(),
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
		ringCap:  DefaultRingCap,
	}
}

// DefaultRingCap bounds the span event ring: once full, the oldest events
// are dropped (and counted) rather than growing without bound.
const DefaultRingCap = 4096

// Registry holds one collection domain's instruments. A migration
// typically owns one registry shared by the monitor, CRIU, the page
// transport, and the cluster layer; components not handed a registry fall
// back to a private one so their Stats() accessors keep working.
type Registry struct {
	epoch  time.Time
	spanID atomic.Uint64

	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	ring     []SpanEvent
	ringCap  int
	dropped  uint64
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// Counter returns the named counter, creating it on first use. Callers on
// hot paths should resolve once and keep the pointer. Returns nil (a
// no-op counter) on the disabled registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named latency histogram, creating it on first
// use. Returns nil (a no-op histogram) on the disabled registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// --- counters ---

// Counter is a monotonically increasing atomic counter. The nil Counter
// is a no-op.
type Counter struct{ v atomic.Uint64 }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for the nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// --- histograms ---

// histBuckets is the fixed bucket count: bucket i holds observations
// whose nanosecond value has bit length i, i.e. [2^(i-1), 2^i). That
// covers 1 ns to ~292 years in 64 buckets with no allocation and a
// constant-time Observe.
const histBuckets = 64

// Histogram is a fixed-bucket (power-of-two nanoseconds) latency
// histogram. Percentiles are estimated at the geometric midpoint of the
// bucket containing the target rank — coarse (±50%) but allocation-free
// and monotone, which is what bottleneck hunting needs. The nil Histogram
// is a no-op.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64 // total ns, for means
	buckets [histBuckets]atomic.Uint64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bits.Len64(ns)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// Quantile estimates the q-th quantile (0 < q <= 1) of the recorded
// durations, or 0 if the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen uint64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return bucketMid(i)
		}
	}
	return bucketMid(histBuckets - 1)
}

// bucketMid returns the geometric midpoint of bucket i: 1.5 * 2^(i-1) ns
// (bucket 0 holds exact zeros).
func bucketMid(i int) time.Duration {
	if i == 0 {
		return 0
	}
	if i == 1 {
		return time.Nanosecond
	}
	return time.Duration(3 << uint(i-2))
}

// --- spans ---

// Span is one phase of work, nestable into a tree. It finishes exactly
// once, either by End (wall-clock duration since NewSpan/Child) or by
// Finish (an explicit, typically modeled, duration); finishing pushes
// one event into the registry's ring. The nil Span is a no-op, so span
// trees built on a disabled registry cost nothing.
type Span struct {
	reg    *Registry
	id     uint64
	parent uint64
	name   string
	start  time.Time
	done   atomic.Bool
}

// NewSpan creates a root span. Finish it with End (wall clock) or Finish
// (explicit duration).
func (r *Registry) NewSpan(name string) *Span { return r.newSpan(name, 0) }

func (r *Registry) newSpan(name string, parent uint64) *Span {
	if r == nil {
		return nil
	}
	return &Span{reg: r, id: r.spanID.Add(1), parent: parent, name: name, start: time.Now()}
}

// Child creates a nested span. Finish it with End (wall clock) or Finish
// (explicit duration).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.reg.newSpan(name, s.id)
}

// Rename changes the name an unfinished span is recorded under, for a
// phase whose kind is known only once it has run: a pre-copy round turns
// out to be the final one — the downtime window — after its dump.
func (s *Span) Rename(name string) {
	if s != nil {
		s.name = name
	}
}

// End finishes the span with the wall-clock time since it was started.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.Finish(time.Since(s.start))
}

// Finish finishes the span with an explicit duration (modeled time).
// Only the first End/Finish takes effect.
func (s *Span) Finish(d time.Duration) {
	if s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	if d < 0 {
		d = 0
	}
	s.reg.push(SpanEvent{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		StartNs: s.start.Sub(s.reg.epoch).Nanoseconds(),
		DurNs:   d.Nanoseconds(),
	})
}

func (r *Registry) push(ev SpanEvent) {
	r.mu.Lock()
	if len(r.ring) >= r.ringCap {
		// Drop the oldest event; the ring is small enough that a copy
		// beats a real ring buffer's bookkeeping at this event rate.
		copy(r.ring, r.ring[1:])
		r.ring = r.ring[:len(r.ring)-1]
		r.dropped++
	}
	r.ring = append(r.ring, ev)
	r.mu.Unlock()
}
