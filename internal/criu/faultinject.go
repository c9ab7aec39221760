package criu

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dapper-sim/dapper/internal/mem"
)

// Fault injection for the page-transport layer. These wrappers make the
// retry/reconnect logic deterministically testable: every random decision
// comes from one seeded source, so a given (seed, workload) pair injects
// the same fault pattern modulo goroutine interleaving.

// FaultSpec configures injected faults.
type FaultSpec struct {
	// Seed seeds the fault pattern.
	Seed int64
	// FailRate is the probability a FlakySource.ReadPage call fails with
	// an injected error. Rates apply per page read: a TCP server's failed
	// read of the requested page reaches the client as an error frame, of
	// another page of its run as a not-sent frame.
	FailRate float64
	// DropRate is the probability a FlakyListener connection write is
	// truncated mid-frame and the connection torn down — the
	// "server died mid-page" failure.
	DropRate float64
	// Latency is added to an operation with probability LatencyRate —
	// the "slow server" failure that trips client fetch deadlines; the
	// delays of a run's page reads add up in front of its response.
	Latency     time.Duration
	LatencyRate float64
}

type faultRoller struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newFaultRoller(seed int64) *faultRoller {
	return &faultRoller{rng: rand.New(rand.NewSource(seed))}
}

func (r *faultRoller) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64() < p
}

// FlakySource wraps a PageSource, injecting latency and failures per
// FaultSpec. It implements PageSource.
type FlakySource struct {
	src      PageSource
	spec     FaultSpec
	roll     *faultRoller
	failures atomic.Uint64
	delays   atomic.Uint64
}

// NewFlakySource wraps src.
func NewFlakySource(src PageSource, spec FaultSpec) *FlakySource {
	return &FlakySource{src: src, spec: spec, roll: newFaultRoller(spec.Seed)}
}

// ReadPage implements PageSource.
func (f *FlakySource) ReadPage(addr uint64, dst *[mem.PageSize]byte) error {
	if f.roll.roll(f.spec.LatencyRate) {
		f.delays.Add(1)
		time.Sleep(f.spec.Latency)
	}
	if f.roll.roll(f.spec.FailRate) {
		f.failures.Add(1)
		return fmt.Errorf("faultinject: injected fetch failure for page 0x%x", addr)
	}
	return f.src.ReadPage(addr, dst)
}

// Failures returns how many fetches were failed by injection.
func (f *FlakySource) Failures() uint64 { return f.failures.Load() }

// Delays returns how many fetches had latency injected.
func (f *FlakySource) Delays() uint64 { return f.delays.Load() }

// FlakyListener wraps a net.Listener so accepted connections inject write
// truncation/teardown and latency per FaultSpec — simulating a page server
// whose connections die mid-response.
type FlakyListener struct {
	net.Listener
	spec  FaultSpec
	roll  *faultRoller
	drops atomic.Uint64
}

// NewFlakyListener wraps ln.
func NewFlakyListener(ln net.Listener, spec FaultSpec) *FlakyListener {
	return &FlakyListener{Listener: ln, spec: spec, roll: newFaultRoller(spec.Seed)}
}

// Accept implements net.Listener.
func (l *FlakyListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &flakyConn{Conn: conn, l: l}, nil
}

// Drops returns how many connection-killing truncations were injected.
func (l *FlakyListener) Drops() uint64 { return l.drops.Load() }

type flakyConn struct {
	net.Conn
	l *FlakyListener
}

func (c *flakyConn) Write(b []byte) (int, error) {
	if c.l.roll.roll(c.l.spec.LatencyRate) {
		time.Sleep(c.l.spec.Latency)
	}
	if c.l.roll.roll(c.l.spec.DropRate) {
		c.l.drops.Add(1)
		n, _ := c.Conn.Write(b[:len(b)/2])
		// The injected Write error below is the fault being delivered; a
		// close failure on the deliberately-killed conn adds nothing.
		_ = c.Conn.Close()
		return n, fmt.Errorf("faultinject: injected connection drop")
	}
	return c.Conn.Write(b)
}
