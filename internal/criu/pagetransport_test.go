package criu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
)

// mapSource serves synthetic page contents: every page is filled with a
// function of its address so content corruption is detectable.
type mapSource struct {
	mu       sync.Mutex
	requests uint64
	failAddr map[uint64]error // addrs that always fail
}

func pagePattern(addr uint64) []byte {
	page := make([]byte, mem.PageSize)
	fillPattern(addr, page)
	return page
}

func fillPattern(addr uint64, page []byte) {
	for i := 0; i < len(page); i += 8 {
		binary.LittleEndian.PutUint64(page[i:], addr^uint64(i))
	}
}

func (m *mapSource) ReadPage(addr uint64, dst *[mem.PageSize]byte) error {
	m.mu.Lock()
	m.requests++
	err := m.failAddr[addr]
	m.mu.Unlock()
	if err != nil {
		return err
	}
	fillPattern(addr, dst[:])
	return nil
}

func (m *mapSource) Requests() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.requests
}

func checkPage(t *testing.T, addr uint64, got []byte) {
	t.Helper()
	want := pagePattern(addr)
	if len(got) != len(want) {
		t.Fatalf("page 0x%x: got %d bytes, want %d", addr, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("page 0x%x corrupt at byte %d: got 0x%02x want 0x%02x", addr, i, got[i], want[i])
		}
	}
}

// TestPageClientPipelinedConcurrentFetches: the client holds one request
// in flight, so 64 concurrent callers serialize on it — and every one of
// them must get the page it asked for, not a neighbour's. Over flate
// frames, with the server's wire telemetry read back.
func TestPageClientPipelinedConcurrentFetches(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	srv := ServePagesObs(ln, &mapSource{}, reg)
	defer srv.Close()
	c, err := DialPageServerOpts(srv.Addr(), PageClientOpts{Codec: imgproto.CodecFlate})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			addr := uint64(i) * mem.PageSize
			page, err := c.FetchPage(addr)
			if err != nil {
				errs <- fmt.Errorf("page 0x%x: %w", addr, err)
				return
			}
			want := pagePattern(addr)
			for j := range want {
				if page[j] != want[j] {
					errs <- fmt.Errorf("page 0x%x corrupt at %d", addr, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st := c.Stats()
	if st.Fetches != n {
		t.Errorf("client Fetches = %d, want %d", st.Fetches, n)
	}
	if st.Reconnects != 0 || st.Retries != 0 {
		t.Errorf("concurrent callers disturbed the connection: %+v", st)
	}
	if got := srv.Stats().Requests; got != n {
		t.Errorf("server Requests = %d, want %d", got, n)
	}
	// The server counts a frame once its write has returned, which the
	// client's read of that frame does not wait for: Close does.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	frames, flated := reg.Counter("wire.batches").Value(), reg.Counter(WireFormCounter(imgproto.CodecFlate)).Value()
	if frames != n || flated != n {
		t.Errorf("server sent %d response frames, %d of them deflated; want %d of both", frames, flated, n)
	}
	raw, wire := reg.Counter("wire.bytes_raw").Value(), reg.Counter("wire.bytes_wire").Value()
	if raw != n*mem.PageSize || wire == 0 || wire >= raw {
		t.Errorf("wire telemetry: %d raw bytes (want %d), %d on the wire (want fewer)", raw, n*mem.PageSize, wire)
	}
}

// TestPageServerErrorFrame verifies that a server-side FetchPage failure is
// reported as an explicit error frame: the client sees the message, the
// connection stays synchronized, and other pages remain fetchable.
func TestPageServerErrorFrame(t *testing.T) {
	bad := uint64(7) * mem.PageSize
	src := &mapSource{failAddr: map[uint64]error{bad: errors.New("disk on fire")}}
	srv := ServePagesOn(listen(t), src)
	defer srv.Close()
	c, err := DialPageServerOpts(srv.Addr(), PageClientOpts{
		MaxRetries: 2, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.FetchPage(bad); err == nil {
		t.Fatal("fetch of failing page succeeded")
	} else {
		var remote *RemoteFetchError
		if !errors.As(err, &remote) {
			t.Fatalf("error %v is not a RemoteFetchError", err)
		}
		if remote.Addr != bad || remote.Msg != "disk on fire" {
			t.Errorf("remote error = %+v, want addr 0x%x msg %q", remote, bad, "disk on fire")
		}
	}
	// The same connection must still serve good pages: no desync.
	page, err := c.FetchPage(3 * mem.PageSize)
	if err != nil {
		t.Fatalf("fetch after error frame: %v", err)
	}
	checkPage(t, 3*mem.PageSize, page)
	st := srv.Stats()
	if st.Errors != 3 { // initial attempt + 2 retries
		t.Errorf("server Errors = %d, want 3", st.Errors)
	}
	if c.Stats().RemoteErrors != 3 {
		t.Errorf("client RemoteErrors = %d, want 3", c.Stats().RemoteErrors)
	}
	if c.Stats().Reconnects != 0 {
		t.Errorf("error frames should not force reconnects, got %d", c.Stats().Reconnects)
	}
}

// TestPageClientReconnectAfterDrop injects mid-frame connection drops on
// the server side; every fetch must still succeed via retry+reconnect.
func TestPageClientReconnectAfterDrop(t *testing.T) {
	faults, fsrv := newFlakyServer(t, FaultSpec{Seed: 42, DropRate: 0.3}, &mapSource{})
	defer fsrv.Close()

	c, err := DialPageServerOpts(fsrv.Addr(), PageClientOpts{
		MaxRetries: 12, RetryBackoff: time.Millisecond, FetchTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 50
	for i := 0; i < n; i++ {
		addr := uint64(i) * mem.PageSize
		page, err := c.FetchPage(addr)
		if err != nil {
			t.Fatalf("page 0x%x: %v", addr, err)
		}
		checkPage(t, addr, page)
	}
	drops := faults.Counter("faults.drops").Value()
	if drops == 0 {
		t.Fatal("fault injector never dropped a connection; test exercised nothing")
	}
	st := c.Stats()
	if st.Reconnects == 0 {
		t.Errorf("drops injected (%d) but client never reconnected: %+v", drops, st)
	}
	if st.Fetches != n {
		t.Errorf("Fetches = %d, want %d", st.Fetches, n)
	}
}

// newFlakyServer serves src behind a FlakyListener that counts its drops
// into the returned registry.
func newFlakyServer(t *testing.T, spec FaultSpec, src PageSource) (*obs.Registry, *PageServer) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	faults := obs.New()
	return faults, ServePagesOn(NewFlakyListener(ln, spec, faults), src)
}

// TestPageClientDeadlineRetry injects latency above the fetch deadline on
// a fraction of fetches; timed-out attempts must be retried until a fast
// attempt lands. A timed-out attempt drops its connection, so the late
// response dies with it and can never be taken for the retry's.
func TestPageClientDeadlineRetry(t *testing.T) {
	faults := obs.New()
	src := NewFlakySource(&mapSource{}, FaultSpec{
		Seed: 7, Latency: 150 * time.Millisecond, LatencyRate: 0.4,
	}, faults)
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
	const n = 30
	for i := 0; i < n; i++ {
		addr := uint64(i) * mem.PageSize
		page, err := c.FetchPage(addr)
		if err != nil {
			t.Fatalf("page 0x%x: %v", addr, err)
		}
		checkPage(t, addr, page)
	}
	delays := faults.Counter("faults.delays").Value()
	if delays == 0 {
		t.Fatal("no latency was injected; test exercised nothing")
	}
	st := c.Stats()
	if st.Timeouts == 0 {
		t.Errorf("latency injected (%d delays) but no attempt timed out: %+v", delays, st)
	}
	if st.Reconnects < st.Timeouts {
		t.Errorf("%d attempts timed out but only %d redials: a timed-out connection was reused", st.Timeouts, st.Reconnects)
	}
	if st.Fetches != n {
		t.Errorf("Fetches = %d, want %d", st.Fetches, n)
	}
}

func TestPageServerAndClientCloseIdempotent(t *testing.T) {
	srv := ServePagesOn(listen(t), &mapSource{})
	c, err := DialPageServerOpts(srv.Addr(), PageClientOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("client close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second client close: %v", err)
	}
	if _, err := c.FetchPage(0); !errors.Is(err, ErrPageClientClosed) {
		t.Errorf("fetch after close = %v, want ErrPageClientClosed", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("server close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second server close: %v", err)
	}
}

// TestPageServerCloseUnblocksClients: closing the server mid-request must
// fail the client's fetch (after retries) instead of hanging it.
func TestPageServerCloseUnblocksClients(t *testing.T) {
	blocker := make(chan struct{})
	slow := fetchFunc(func(addr uint64) ([]byte, error) {
		<-blocker
		return pagePattern(addr), nil
	})
	srv := ServePagesOn(listen(t), slow)
	c, err := DialPageServerOpts(srv.Addr(), PageClientOpts{
		FetchTimeout: 50 * time.Millisecond, MaxRetries: 1, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		_, err := c.FetchPage(0)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("fetch against a stalled server succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fetch hung past its deadline budget")
	}
	close(blocker)
	if err := srv.Close(); err != nil {
		t.Errorf("close with stalled handler: %v", err)
	}
}

// TestLazyFaultBudget pins the fault path's copy budget (docs/perf.md)
// per request: from the stopped source's frame to the caller's page there
// is one copy on each side of the socket — into the payload region of the
// server's reused response buffer, and off the wire into the caller's
// page — so a request for a page allocates no page on either end, and the
// client owns no goroutine. Every second page was never populated on the
// source and is served as a cleared one.
func TestLazyFaultBudget(t *testing.T) {
	const n = 256
	as := mem.NewAddressSpace()
	if err := as.Map(mem.VMA{Start: 0, End: n * mem.PageSize, Kind: mem.VMAHeap}); err != nil {
		t.Fatal(err)
	}
	for idx := uint64(0); idx < n; idx += 2 {
		as.InstallPage(idx, pagePattern(idx*mem.PageSize))
	}
	srv := ServePagesOn(listen(t), NewProcessPageSource(&kernel.Process{AS: as}))
	defer srv.Close()

	goroutines := runtime.NumGoroutine()
	c, err := DialPageServerOpts(srv.Addr(), PageClientOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var page [mem.PageSize]byte
	if err := c.ReadPage(0, &page); err != nil { // the server's first request takes its pooled response buffer
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for idx := uint64(0); idx < n; idx++ {
		page[8] = 0xFF // a cleared page must be cleared by the fetch
		if err := c.ReadPage(idx*mem.PageSize, &page); err != nil {
			t.Fatal(err)
		}
		want := idx*mem.PageSize ^ 8 // pagePattern's second word
		if idx%2 == 1 {
			want = 0
		}
		if got := binary.LittleEndian.Uint64(page[8:]); got != want {
			t.Fatalf("page %d: word 1 = 0x%x, want 0x%x", idx, got, want)
		}
	}
	runtime.ReadMemStats(&after)
	perRequest := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("heap allocated per request for a page into the caller's page, both ends of the socket: %d B", perRequest)
	if limit := uint64(512); perRequest > limit {
		t.Errorf("a request allocates %d B, budget %d", perRequest, limit)
	}
	// One more than before the dial: the server's goroutine for this
	// connection. The client added none.
	if got := runtime.NumGoroutine(); got != goroutines+1 {
		t.Errorf("%d goroutines before the dial, %d after the last fetch; want %d", goroutines, got, goroutines+1)
	}
}

// TestLazyFaultDestinationBudget is the fault path end to end at the
// destination: a restored process's address space, every page of it left
// lazy, faults n pages in address order through InstallLazyHandler and a
// real page client, so each fault's request brings the rest of its run.
// Each page installed costs the frame the space installs and not a second
// page — the client reads each frame of the response into a frame of the
// destination's, and the space installs it without a copy.
func TestLazyFaultDestinationBudget(t *testing.T) {
	const n, base = 256, uint64(0x10000)
	src := mem.NewAddressSpace()
	if err := src.Map(mem.VMA{Start: base, End: base + n*mem.PageSize, Kind: mem.VMAHeap}); err != nil {
		t.Fatal(err)
	}
	for idx := uint64(0); idx < n; idx++ {
		src.InstallPage(base/mem.PageSize+idx, pagePattern(base+idx*mem.PageSize))
	}
	srv := ServePagesOn(listen(t), NewProcessPageSource(&kernel.Process{AS: src}))
	defer srv.Close()
	c, err := DialPageServerOpts(srv.Addr(), PageClientOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var warm [mem.PageSize]byte
	if err := c.ReadPage(base, &warm); err != nil { // the server's first request takes its pooled response buffer
		t.Fatal(err)
	}
	dst := &kernel.Process{AS: mem.NewAddressSpace()}
	if err := dst.AS.Map(mem.VMA{Start: base, End: base + n*mem.PageSize, Kind: mem.VMAHeap, Prot: mem.ProtRead | mem.ProtWrite}); err != nil {
		t.Fatal(err)
	}
	dst.AS.SetLazyPages([]mem.PageRange{{Start: base / mem.PageSize, End: base/mem.PageSize + n}})
	InstallLazyHandler(dst, c)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for idx := uint64(0); idx < n; idx++ {
		addr := base + idx*mem.PageSize
		got, err := dst.AS.ReadU64(addr + 8)
		if err != nil {
			t.Fatal(err)
		}
		if want := addr ^ 8; got != want { // pagePattern's second word
			t.Fatalf("page 0x%x: word 1 = 0x%x, want 0x%x", addr, got, want)
		}
	}
	runtime.ReadMemStats(&after)
	if got := c.Stats().Fetches - 1; got != n/runPages {
		t.Fatalf("%d requests for %d faults over %d runs", got, n, n/runPages)
	}
	perPage := (after.TotalAlloc - before.TotalAlloc) / n
	t.Logf("heap allocated per page installed, both ends of the socket: %d B (%.2f pages)", perPage, float64(perPage)/mem.PageSize)
	if limit := uint64(mem.PageSize + 256); perPage > limit {
		t.Errorf("a page installed allocates %d B, budget %d", perPage, limit)
	}
}

type fetchFunc func(addr uint64) ([]byte, error)

func (f fetchFunc) ReadPage(addr uint64, dst *[mem.PageSize]byte) error {
	page, err := f(addr)
	copy(dst[:], page)
	return err
}
