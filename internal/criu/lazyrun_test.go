package criu

import (
	"errors"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
)

// runBase0 is an aligned run address for the tests below: kv_lazy's heap.
const runBase0 = uint64(0x20000000)

// logSource is mapSource that also records, in order, every page it is
// asked to read: on the server's side of the socket, the pages requested.
type logSource struct {
	mu   sync.Mutex
	log  []uint64
	maps mapSource
}

func (s *logSource) ReadPage(addr uint64, dst *[mem.PageSize]byte) error {
	s.mu.Lock()
	s.log = append(s.log, addr)
	s.mu.Unlock()
	return s.maps.ReadPage(addr, dst)
}

func (s *logSource) reads() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.log...)
}

// cutListener cuts one write, the write-th of a connection (the hello
// acknowledgment is the first), after at bytes and closes the connection:
// a response lost mid-run. It cuts once.
type cutListener struct {
	net.Listener
	write, at int
	done      atomic.Bool
}

func (l *cutListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &cutConn{Conn: conn, l: l}, nil
}

type cutConn struct {
	net.Conn
	l      *cutListener
	writes int
}

func (c *cutConn) Write(b []byte) (int, error) {
	c.writes++
	if c.writes == c.l.write && c.l.done.CompareAndSwap(false, true) {
		n, _ := c.Conn.Write(b[:c.l.at])
		_ = c.Conn.Close() // the cut being delivered
		return n, net.ErrClosed
	}
	return c.Conn.Write(b)
}

// lazyServer serves the pattern pages through a logSource on ln and dials
// it.
func lazyServer(t *testing.T, ln net.Listener) (*logSource, *PageServer, *RemotePageSource) {
	t.Helper()
	src := &logSource{}
	srv := ServePagesOn(ln, src)
	t.Cleanup(func() { _ = srv.Close() })
	c, err := DialPageServerOpts(srv.Addr(), PageClientOpts{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return src, srv, c
}

func listen(t *testing.T) net.Listener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return ln
}

// lazyHeap is a destination process with one heap VMA of n pages at
// runBase0, every page of it left on the source.
func lazyHeap(t *testing.T, n uint64) *kernel.Process {
	t.Helper()
	p := &kernel.Process{AS: mem.NewAddressSpace()}
	if err := p.AS.Map(mem.VMA{Start: runBase0, End: runBase0 + n*mem.PageSize, Kind: mem.VMAHeap, Prot: mem.ProtRead | mem.ProtWrite}); err != nil {
		t.Fatal(err)
	}
	p.AS.SetLazyPages([]mem.PageRange{{Start: runBase0 / mem.PageSize, End: runBase0/mem.PageSize + n}})
	return p
}

// readPattern faults the page at addr through p's handler and checks it.
func readPattern(t *testing.T, p *kernel.Process, addr uint64) {
	t.Helper()
	got, err := p.AS.ReadU64(addr + 8)
	if err != nil {
		t.Fatal(err)
	}
	if want := addr ^ 8; got != want { // pagePattern's second word
		t.Fatalf("page 0x%x: word 1 = 0x%x, want 0x%x", addr, got, want)
	}
}

// TestLazyRunRoundTrips: 256 faults over 16 aligned runs, in a random
// order as kv_lazy's are, make 16 requests — through the bare client and
// through ObsSource — and each page crosses once. When a response is cut
// mid-run the client redials and its retry asks for the faulting page
// alone; the next fault in that run asks for the pages that had not
// landed, and no page that had is sent again.
func TestLazyRunRoundTrips(t *testing.T) {
	const runs = 16
	const n = runs * runPages
	// The third response is cut inside its seventh page: the faulting
	// page and five of the run have landed.
	cut := &cutListener{write: 4, at: pageRespHdrLen + 6*mem.PageSize + mem.PageSize/2}
	for _, tc := range []struct {
		name string
		ln   func(net.Listener) net.Listener
		wrap func(PageSource) PageSource
		// redials is the number of redials the cut causes, extra the
		// requests it adds, and reread the pages it makes the server
		// read again.
		redials, extra, reread int
	}{
		{name: "client"},
		{name: "ObsSource", wrap: func(s PageSource) PageSource { return ObsSource(s, obs.New()) }},
		{name: "redial mid-run", ln: func(ln net.Listener) net.Listener { cut.Listener = ln; return cut }, redials: 1, extra: 2, reread: 1 + 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ln := listen(t)
			if tc.ln != nil {
				ln = tc.ln(ln)
			}
			src, srv, c := lazyServer(t, ln)
			p := lazyHeap(t, n)
			var ps PageSource = c
			if tc.wrap != nil {
				ps = tc.wrap(c)
			}
			InstallLazyHandler(p, ps)
			for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
				readPattern(t, p, runBase0+uint64(i)*mem.PageSize)
			}
			if got, want := srv.Stats().Requests, uint64(runs+tc.extra); got != want {
				t.Errorf("%d requests for %d faults over %d runs, want %d", got, n, runs, want)
			}
			st := c.Stats()
			if st.BytesRead != n*mem.PageSize || st.Reconnects != uint64(tc.redials) {
				t.Errorf("client took in %d pages over %d reconnects, want %d over %d", st.BytesRead/mem.PageSize, st.Reconnects, n, tc.redials)
			}
			reads := src.reads()
			seen := map[uint64]int{}
			for _, a := range reads {
				seen[a]++
			}
			if len(seen) != n || len(reads) != n+tc.reread {
				t.Errorf("server read %d pages, %d distinct; want %d, %d distinct", len(reads), len(seen), n+tc.reread, n)
			}
		})
	}
	if !cut.done.Load() {
		t.Error("the cut never happened")
	}
}

// TestLazyRunNeverOverwrites: a fault's run request names only pages
// the destination lacks, inside the faulting VMA, that the dump left on
// the source. In the run at runBase0 the heap VMA covers pages 0–7 and
// text pages 8–15, all marked lazy but page 3; page 1 was installed and
// page 2 written before the handler was. A fault on page 0 asks for pages
// 4–7 with it and nothing else; page 3 faults on its own, alone.
func TestLazyRunNeverOverwrites(t *testing.T) {
	page := func(i uint64) uint64 { return runBase0 + i*mem.PageSize }
	src, srv, c := lazyServer(t, listen(t))
	p := lazyHeap(t, 8)
	if err := p.AS.Map(mem.VMA{Start: page(8), End: page(16), Kind: mem.VMAText, Prot: mem.ProtRead | mem.ProtExec}); err != nil {
		t.Fatal(err)
	}
	first := runBase0 / mem.PageSize
	p.AS.SetLazyPages([]mem.PageRange{{Start: first, End: first + 3}, {Start: first + 4, End: first + 16}})
	held := make([]byte, mem.PageSize)
	held[8] = 0x11
	p.AS.InstallPage(first+1, held)
	if err := p.AS.WriteU64(page(2)+8, 0x22); err != nil { // demand-zero: no handler yet
		t.Fatal(err)
	}
	InstallLazyHandler(p, c)

	readPattern(t, p, page(0))
	if got, want := src.reads(), []uint64{page(0), page(4), page(5), page(6), page(7)}; !slices.Equal(got, want) {
		t.Errorf("fault on page 0 read %x, want %x", got, want)
	}
	for i, want := range map[uint64]uint64{1: 0x11, 2: 0x22} {
		if got, err := p.AS.ReadU64(page(i) + 8); err != nil || got != want {
			t.Errorf("page %d: word 1 = 0x%x (%v), want 0x%x, its own", i, got, err, want)
		}
	}
	for i := uint64(3); i < 16; i++ {
		if _, resident := p.AS.PageData(first + i); resident != (i >= 4 && i < 8) {
			t.Errorf("page %d resident = %v after the run", i, resident)
		}
	}
	readPattern(t, p, page(3))
	if got := src.reads(); len(got) != 6 || got[5] != page(3) {
		t.Errorf("server read %x in all, want page 3 alone after the first run", got)
	}
	if got := srv.Stats().Requests; got != 2 {
		t.Errorf("%d requests, want 2", got)
	}
}

// TestLazyRunOverFetch bounds the trade a run makes: a guest that faults
// one page per run, and never touches the rest, is sent the whole run —
// at most runPages pages per fault. kv_lazy uses every page it is sent
// (docs/perf.md, "Measured: one round trip per run").
func TestLazyRunOverFetch(t *testing.T) {
	const runs = 16
	_, srv, c := lazyServer(t, listen(t))
	p := lazyHeap(t, runs*runPages)
	InstallLazyHandler(p, c)
	for r := uint64(0); r < runs; r++ {
		readPattern(t, p, runBase0+(r*runPages+r)*mem.PageSize)
	}
	st := srv.Stats()
	sent := st.BytesSent / mem.PageSize
	t.Logf("one fault per run: %d faults, %d requests, %d pages sent, %.1f pages per fault", runs, st.Requests, sent, float64(sent)/runs)
	if st.Requests != runs || sent > runPages*runs {
		t.Errorf("%d faults made %d requests and were sent %d pages; want %d requests and at most %d pages", runs, st.Requests, sent, runs, runPages*runs)
	}
}

// TestLazyRunDeadlineRetry is TestPageClientDeadlineRetry for faults that
// ask for their run: a server-side FlakySource delays 40 % of its page
// reads past the fetch deadline, and fails 20 %, so a request carrying a
// run of k pages is late with probability 1 - 0.6^(k+1). Every fault must
// still land its page through the timeout, redial and retry path, which
// asks for the faulting page alone; a failed read of a run page is left
// out of the response and that page faults later. A retry that asked for the run
// again would succeed about once in 3 000 tries for a full run.
func TestLazyRunDeadlineRetry(t *testing.T) {
	src := NewFlakySource(&mapSource{}, FaultSpec{
		Seed: 7, FailRate: 0.2, Latency: 150 * time.Millisecond, LatencyRate: 0.4,
	}, nil)
	srv := ServePagesOn(listen(t), src)
	defer srv.Close()
	c, err := DialPageServerOpts(srv.Addr(), PageClientOpts{
		FetchTimeout: 40 * time.Millisecond,
		MaxRetries:   20, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := lazyHeap(t, runPages)
	InstallLazyHandler(p, c)
	for i := uint64(0); i < runPages; i++ {
		addr := runBase0 + i*mem.PageSize
		if _, err := p.AS.ReadU64(addr); err != nil {
			t.Fatalf("page 0x%x: %v", addr, err)
		}
		data, _ := p.AS.PageData(addr / mem.PageSize)
		checkPage(t, addr, data)
	}
	st := c.Stats()
	if src.Delays() == 0 || src.Failures() == 0 || st.Timeouts == 0 {
		t.Fatalf("injected %d delays and %d failures, %d attempts timed out: the test exercised nothing", src.Delays(), src.Failures(), st.Timeouts)
	}
	if st.Reconnects < st.Timeouts {
		t.Errorf("%d attempts timed out but only %d redials: a timed-out connection was reused", st.Timeouts, st.Reconnects)
	}
	t.Logf("%d faults: %d requests answered, %d retries, %d timeouts, %d delays, %d failed reads", runPages, st.Fetches, st.Retries, st.Timeouts, src.Delays(), src.Failures())
}

// failOnceSource is mapSource whose first read of the page at addr fails.
type failOnceSource struct {
	mapSource
	addr   uint64
	failed atomic.Bool
}

func (s *failOnceSource) ReadPage(addr uint64, dst *[mem.PageSize]byte) error {
	if addr == s.addr && s.failed.CompareAndSwap(false, true) {
		return errors.New("page withheld")
	}
	return s.mapSource.ReadPage(addr, dst)
}

// TestLazyRunFlateSkipsFailedPage: over a real PageServer speaking flate,
// the source fails a wanted page of a fault's run once. The response
// leaves that page out, the client lands exactly the pages it names, and
// the failed page faults on its own later, alone.
func TestLazyRunFlateSkipsFailedPage(t *testing.T) {
	first := runBase0 / mem.PageSize
	src := &failOnceSource{addr: runBase0 + 3*mem.PageSize}
	reg := obs.New()
	srv := ServePagesObs(listen(t), src, reg)
	defer srv.Close()
	c, err := DialPageServerOpts(srv.Addr(), PageClientOpts{Codec: imgproto.CodecFlate, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	p := lazyHeap(t, runPages)
	InstallLazyHandler(p, c)

	readPattern(t, p, runBase0)
	for i := uint64(1); i < runPages; i++ {
		if _, resident := p.AS.PageData(first + i); resident != (i != 3) {
			t.Errorf("page %d resident = %v after the run", i, resident)
		}
	}
	if st := c.Stats(); st.BytesRead != (runPages-1)*mem.PageSize || st.RemoteErrors != 0 {
		t.Errorf("client took in %d pages and %d remote errors, want %d and none", st.BytesRead/mem.PageSize, st.RemoteErrors, runPages-1)
	}
	readPattern(t, p, src.addr)
	for i := uint64(0); i < runPages; i++ {
		data, _ := p.AS.PageData(first + i)
		checkPage(t, runBase0+i*mem.PageSize, data)
	}
	if st := srv.Stats(); st.Requests != 2 || st.Errors != 1 || st.BytesSent != runPages*mem.PageSize {
		t.Errorf("server: %+v, want 2 requests, 1 error, %d pages sent", st, runPages)
	}
	if got := reg.Counter("wire.form.flate").Value(); got != 2 {
		t.Errorf("%d responses went out deflated, want both", got)
	}
}
