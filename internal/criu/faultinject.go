package criu

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
)

// Fault injection for the page-transport layer. These wrappers make the
// retry/reconnect logic deterministically testable: every random decision
// comes from one seeded source, so a given (seed, workload) pair injects
// the same fault pattern modulo goroutine interleaving.

// FaultSpec configures injected faults. One spec describes a faulty page
// transport; cluster.Migrate applies each rate where it acts: FailRate and
// the latency to the page source (NewFlakySource), DropRate to the TCP
// page server's listener (NewFlakyListener). Each wrapper rolls its own
// dice from Seed.
type FaultSpec struct {
	// Seed seeds the fault pattern.
	Seed int64
	// FailRate is the probability a FlakySource.ReadPage call fails with
	// an injected error. Rates apply per page read: a TCP server's failed
	// read of the requested page reaches the client as an error frame, and
	// another page of its run is left out of the response.
	FailRate float64
	// DropRate is the probability a FlakyListener connection write is
	// truncated mid-frame and the connection torn down — the
	// "server died mid-page" failure.
	DropRate float64
	// Latency is added to a page read with probability LatencyRate —
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

// faultRegistry is where a wrapper counts what it injects: reg, or a
// private registry when reg is nil, so the counts stay readable.
func faultRegistry(reg *obs.Registry) *obs.Registry {
	if reg == nil {
		return obs.New()
	}
	return reg
}

// FlakySource wraps a PageSource, injecting latency and failures per
// FaultSpec. It implements PageSource.
type FlakySource struct {
	src              PageSource
	spec             FaultSpec
	roll             *faultRoller
	failures, delays *obs.Counter
}

// NewFlakySource wraps src, counting injected failures and delays into
// reg ("faults.failures", "faults.delays").
func NewFlakySource(src PageSource, spec FaultSpec, reg *obs.Registry) *FlakySource {
	reg = faultRegistry(reg)
	return &FlakySource{
		src: src, spec: spec, roll: newFaultRoller(spec.Seed),
		failures: reg.Counter("faults.failures"), delays: reg.Counter("faults.delays"),
	}
}

// ReadPage implements PageSource.
func (f *FlakySource) ReadPage(addr uint64, dst *[mem.PageSize]byte) error {
	if f.roll.roll(f.spec.LatencyRate) {
		f.delays.Inc()
		time.Sleep(f.spec.Latency)
	}
	if f.roll.roll(f.spec.FailRate) {
		f.failures.Inc()
		return fmt.Errorf("faultinject: injected fetch failure for page 0x%x", addr)
	}
	return f.src.ReadPage(addr, dst)
}

// Failures returns how many fetches were failed by injection.
func (f *FlakySource) Failures() uint64 { return f.failures.Value() }

// Delays returns how many fetches had latency injected.
func (f *FlakySource) Delays() uint64 { return f.delays.Value() }

// FlakyListener wraps a net.Listener so accepted connections truncate and
// tear down writes per FaultSpec.DropRate — simulating a page server
// whose connections die mid-response.
type FlakyListener struct {
	net.Listener
	spec  FaultSpec
	roll  *faultRoller
	drops *obs.Counter
}

// NewFlakyListener wraps ln, counting injected drops into reg
// ("faults.drops").
func NewFlakyListener(ln net.Listener, spec FaultSpec, reg *obs.Registry) *FlakyListener {
	return &FlakyListener{Listener: ln, spec: spec, roll: newFaultRoller(spec.Seed), drops: faultRegistry(reg).Counter("faults.drops")}
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
func (l *FlakyListener) Drops() uint64 { return l.drops.Value() }

type flakyConn struct {
	net.Conn
	l *FlakyListener
}

func (c *flakyConn) Write(b []byte) (int, error) {
	if c.l.roll.roll(c.l.spec.DropRate) {
		c.l.drops.Inc()
		n, _ := c.Conn.Write(b[:len(b)/2])
		// The injected Write error below is the fault being delivered; a
		// close failure on the deliberately-killed conn adds nothing.
		_ = c.Conn.Close()
		return n, fmt.Errorf("faultinject: injected connection drop")
	}
	return c.Conn.Write(b)
}
