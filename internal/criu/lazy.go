package criu

import (
	"sort"
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
	// Requests counts ReadPage calls, including ones that failed; for the
	// TCP server, request frames, each of which may read a run of pages.
	Requests uint64
	// BytesSent counts payload bytes of pages read successfully.
	BytesSent uint64
	// Errors counts page reads that failed (reported to clients by the
	// TCP server as an error frame, or a wanted page left out of a
	// response, rather than dropped connections).
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
	_, err := o.readRun(addr, dst, nil)
	return err
}

func (o *obsSource) readRun(addr uint64, dst *[mem.PageSize]byte, run *lazyRun) (int, error) {
	start := time.Now()
	landed, err := fetchRun(o.src, addr, dst, run)
	o.lat.Observe(time.Since(start))
	o.fetches.Inc()
	pages := landed
	if err != nil {
		o.errs.Inc()
	} else {
		pages++
	}
	o.bytes.Add(uint64(pages) * mem.PageSize)
	return landed, err
}

// runReader is a PageSource that can answer a fault with more of its run
// in the same round trip (RemotePageSource), or ObsSource passing the run
// on to the source it wraps. readRun returns the run pages that arrived.
type runReader interface {
	readRun(addr uint64, dst *[mem.PageSize]byte, run *lazyRun) (int, error)
}

// fetchRun is src.ReadPage plus, if src fetches runs, the pages of addr's
// run that run wants (nil: none), and returns how many of those arrived;
// any other source, the in-process one with no round trip to amortize
// among them, answers the faulting page alone.
func fetchRun(src PageSource, addr uint64, dst *[mem.PageSize]byte, run *lazyRun) (int, error) {
	if r, ok := src.(runReader); ok {
		return r.readRun(addr, dst, run)
	}
	return 0, src.ReadPage(addr, dst)
}

// lazyRun is the destination's side of a fault's run.
type lazyRun struct {
	as   *mem.AddressSpace
	addr uint64 // the faulting page
}

// want names the other pages of the faulting page's run that the dump
// left on the source, that lie in the faulting page's VMA (never text),
// and that the space lacks (never a page it holds or wrote). It is asked
// afresh on every attempt.
func (r *lazyRun) want() (want uint16) {
	vma, _ := r.as.FindVMA(r.addr)
	base, lazy := runBase(r.addr)/mem.PageSize, r.as.LazyPages()
	i := sort.Search(len(lazy), func(i int) bool { return lazy[i].End > base })
	for _, rg := range lazy[i:] {
		if rg.Start >= base+runPages {
			break
		}
		for idx := max(rg.Start, base); idx < min(rg.End, base+runPages); idx++ {
			if _, held := r.as.PageData(idx); !held && vma.Contains(idx*mem.PageSize) && idx*mem.PageSize != r.addr {
				want |= 1 << (idx - base)
			}
		}
	}
	return want
}

// land installs a page of the run that arrived, unless one is resident.
func (r *lazyRun) land(addr uint64, frame *[mem.PageSize]byte) {
	r.as.FillPage(addr/mem.PageSize, frame)
}

// InstallLazyHandler wires a restored process's page faults to a source:
// each fault reads the page straight into the frame the address space
// installs. Over TCP the fault's first request also fetches the other
// pages of its aligned 64 KiB run that p.AS.LazyPages lists and the space
// lacks, and installs each as if it had faulted; a retry asks for the
// faulting page alone. A ReadPage error propagates out of the faulting
// memory access as a *mem.FaultError whose Cause is the transport error
// (see kernel.IsLazyFaultError), failing the process rather than
// silently zero-filling the page.
func InstallLazyHandler(p *kernel.Process, src PageSource) {
	run := &lazyRun{as: p.AS}
	p.AS.SetFaultHandler(func(addr uint64, frame *[mem.PageSize]byte) error {
		run.addr = addr
		_, err := fetchRun(src, addr, frame, run)
		return err
	})
}
