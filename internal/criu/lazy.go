package criu

import (
	"sync"
	"time"

	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
)

// PageSource serves page contents for post-copy restoration. ReadPage
// fills dst, a page the caller owns, with the page at addr — the
// destination's fault handler passes the frame it is about to install,
// the TCP server the payload region of the response it is about to
// write — so no source lends out bytes of its own. On error dst's
// contents are undefined.
//
// Implementations: ProcessPageSource (in-process, same-host),
// RemotePageSource (TCP client, see pageclient.go), FlakySource
// (fault-injection wrapper, see faultinject.go).
type PageSource interface {
	ReadPage(addr uint64, dst *[mem.PageSize]byte) error
}

// ProcessPageSource serves pages directly from a (stopped) source
// process's address space — the in-process page server used by same-host
// tests and by the cluster's in-memory transport. Pages that were never
// populated on the source are served zeroed (demand-zero semantics).
type ProcessPageSource struct {
	mu    sync.Mutex
	p     *kernel.Process
	reqs  *obs.Counter
	bytes *obs.Counter
}

// PageServerStats counts page-server activity (drives the Fig. 7 model).
// It is a snapshot of obs counters (see Stats).
type PageServerStats struct {
	// Requests counts ReadPage calls, including ones that failed.
	Requests uint64
	// BytesSent counts payload bytes of successful fetches.
	BytesSent uint64
	// Errors counts fetches that failed (reported to clients as error
	// frames by the TCP server rather than dropped connections).
	Errors uint64
}

// NewProcessPageSource wraps a stopped source process with a private
// telemetry registry.
func NewProcessPageSource(p *kernel.Process) *ProcessPageSource {
	return NewProcessPageSourceObs(p, nil)
}

// NewProcessPageSourceObs wraps a stopped source process, recording serving
// counters into reg ("pagesource.*"). A nil reg gives the source a private
// registry so Stats keeps working.
func NewProcessPageSourceObs(p *kernel.Process, reg *obs.Registry) *ProcessPageSource {
	if reg == nil {
		reg = obs.New()
	}
	return &ProcessPageSource{
		p:     p,
		reqs:  reg.Counter("pagesource.requests"),
		bytes: reg.Counter("pagesource.bytes_sent"),
	}
}

// ReadPage implements PageSource: it copies the stopped source's frame
// into dst, or clears dst for a page never populated.
func (s *ProcessPageSource) ReadPage(addr uint64, dst *[mem.PageSize]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reqs.Inc()
	s.bytes.Add(mem.PageSize)
	if data, ok := s.p.AS.PageData(addr / mem.PageSize); ok {
		copy(dst[:], data)
	} else {
		clear(dst[:])
	}
	return nil
}

// Stats returns a snapshot of the counters.
func (s *ProcessPageSource) Stats() PageServerStats {
	return PageServerStats{Requests: s.reqs.Value(), BytesSent: s.bytes.Value()}
}

// ObsSource wraps a PageSource so every fetch the destination's fault
// handler makes — in-process or remote, successful or failed — is timed
// into reg's "fault.service_ns" histogram and counted. This is the
// migration-level view of the post-copy tail; transport-level detail
// lives in the pageclient/pageserver counters. A nil reg returns src
// unchanged (zero overhead when telemetry is off).
func ObsSource(src PageSource, reg *obs.Registry) PageSource {
	if reg == nil {
		return src
	}
	return &obsSource{
		src:     src,
		fetches: reg.Counter("fault.fetches"),
		errs:    reg.Counter("fault.errors"),
		bytes:   reg.Counter("fault.bytes"),
		lat:     reg.Histogram("fault.service_ns"),
	}
}

type obsSource struct {
	src     PageSource
	fetches *obs.Counter
	errs    *obs.Counter
	bytes   *obs.Counter
	lat     *obs.Histogram
}

func (o *obsSource) ReadPage(addr uint64, dst *[mem.PageSize]byte) error {
	start := time.Now()
	err := o.src.ReadPage(addr, dst)
	o.lat.Observe(time.Since(start))
	o.fetches.Inc()
	if err != nil {
		o.errs.Inc()
		return err
	}
	o.bytes.Add(mem.PageSize)
	return nil
}

// InstallLazyHandler wires a restored process's page faults to a source:
// each fault reads the page straight into the frame the address space
// installs. A ReadPage error propagates out of the faulting memory access
// as a *mem.FaultError whose Cause is the transport error (see
// kernel.IsLazyFaultError), failing the process rather than silently
// zero-filling the page.
func InstallLazyHandler(p *kernel.Process, src PageSource) {
	p.AS.SetFaultHandler(src.ReadPage)
}
