package criu

import (
	"sync"
	"time"

	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
)

// PageSource serves page contents for post-copy restoration. The
// destination's fault handler calls FetchPage for every missing page.
// The returned bytes are read-only and valid until the next FetchPage on
// this source: a source may hand out its own frames by reference, and
// both consumers copy before they ask again — the in-process handler
// into the destination frame, the TCP server into the response it writes
// before reading the next request.
//
// Implementations: ProcessPageSource (in-process, same-host),
// RemotePageSource (TCP client, see pageclient.go), FlakySource
// (fault-injection wrapper, see faultinject.go).
type PageSource interface {
	FetchPage(addr uint64) ([]byte, error)
}

// ProcessPageSource serves pages directly from a (stopped) source
// process's address space — the in-process page server used by same-host
// tests and by the cluster's in-memory transport. Pages that were never
// populated on the source are returned zeroed (demand-zero semantics).
// The source process stays stopped for as long as it serves pages, so
// FetchPage returns its frames by reference and copies nothing.
type ProcessPageSource struct {
	mu    sync.Mutex
	p     *kernel.Process
	reqs  *obs.Counter
	bytes *obs.Counter
}

// PageServerStats counts page-server activity (drives the Fig. 7 model).
// It is a snapshot of obs counters (see Stats).
type PageServerStats struct {
	// Requests counts FetchPage calls, including ones that failed.
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

// FetchPage implements PageSource.
func (s *ProcessPageSource) FetchPage(addr uint64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.reqs.Inc()
	s.bytes.Add(mem.PageSize)
	if data, ok := s.p.AS.PageData(addr / mem.PageSize); ok {
		return data, nil
	}
	return zeroPage[:], nil
}

// zeroPage is the one demand-zero page every never-populated address is
// served from.
var zeroPage [mem.PageSize]byte

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

func (o *obsSource) FetchPage(addr uint64) ([]byte, error) {
	start := time.Now()
	page, err := o.src.FetchPage(addr)
	o.lat.Observe(time.Since(start))
	o.fetches.Inc()
	if err != nil {
		o.errs.Inc()
		return nil, err
	}
	o.bytes.Add(uint64(len(page)))
	return page, nil
}

// InstallLazyHandler wires a restored process's page faults to a source.
// A FetchPage error propagates out of the faulting memory access as a
// *mem.FaultError whose Cause is the transport error (see
// kernel.IsLazyFaultError), failing the process rather than silently
// zero-filling the page.
func InstallLazyHandler(p *kernel.Process, src PageSource) {
	p.AS.SetFaultHandler(func(pageAddr uint64) ([]byte, error) {
		return src.FetchPage(pageAddr)
	})
}
