package criu

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
)

// PageClientOpts tunes the resilient page client. The zero value selects
// the defaults noted on each field.
type PageClientOpts struct {
	// FetchTimeout bounds one fetch attempt's request and response
	// (default 2s). A timed-out attempt drops its connection — the late
	// response, if any, dies with it — and is retried on a fresh one.
	FetchTimeout time.Duration
	// MaxRetries is how many times a failed or timed-out fetch is retried
	// (default 4). A retry after a transport failure redials.
	MaxRetries int
	// RetryBackoff is the delay before the first retry (default 5ms),
	// doubling per subsequent retry up to 32x.
	RetryBackoff time.Duration
	// Codec is the page codec requested from the server in each
	// connection's hello; the zero value, CodecNone, frames without
	// compression.
	Codec imgproto.Codec
	// Dial overrides the dialer; tests inject faulty transports here.
	Dial func(addr string) (net.Conn, error)
	// Obs, if set, is the telemetry registry the client records into
	// ("pageclient.*" counters). Nil gives the client a private registry
	// so Stats keeps working.
	Obs *obs.Registry
}

func (o PageClientOpts) withDefaults() PageClientOpts {
	if o.FetchTimeout <= 0 {
		o.FetchTimeout = 2 * time.Second
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	} else if o.MaxRetries == 0 {
		o.MaxRetries = 4
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 5 * time.Millisecond
	}
	return o
}

// dialTimeout bounds one (re)connection attempt, including the hello.
const dialTimeout = time.Second

// PageClientStats counts client-side transport activity. It is a snapshot
// of the client's obs counters (see Stats).
type PageClientStats struct {
	Fetches      uint64 // successful requests (ReadPage calls and faults)
	Retries      uint64 // attempts beyond each fetch's first
	Reconnects   uint64 // redials after the connection broke
	Timeouts     uint64 // attempts abandoned at FetchTimeout
	RemoteErrors uint64 // explicit error frames from the server
	BytesRead    uint64 // page payload bytes received, run pages included
	// Desyncs counts connections dropped because a response frame
	// violated the framing, as opposed to plain teardown.
	Desyncs uint64
}

// ErrPageClientClosed is returned by ReadPage after Close.
var ErrPageClientClosed = errors.New("criu: page client closed")

// RemotePageSource is the client side of the TCP page server: one
// connection with one request in flight, a deadline per attempt, and
// retry-and-reconnect bounded by MaxRetries alone: a fetch that fails
// every attempt fails the faulting process, which never fetches again.
// The restored process faults one page at a
// time on the goroutine that steps it, so there is never a second
// request to overlap with the first; instead a fault's one request asks
// for the rest of its run (see InstallLazyHandler). It implements
// PageSource and is safe for concurrent use: concurrent fetches take
// turns.
type RemotePageSource struct {
	addr string
	opts PageClientOpts

	// Transport counters live in an obs registry (PageClientOpts.Obs or a
	// private one); Stats snapshots them.
	fetches, retries, reconnects *obs.Counter
	timeouts, remoteErrs, bytes  *obs.Counter
	desyncs                      *obs.Counter

	// mu is held for the whole of a fetch, retries included, and by
	// Close; the fields below it belong to whoever holds it.
	mu     sync.Mutex
	conn   net.Conn
	closed bool
	// br reads conn through a buffer of a header and a page, so a
	// one-page response usually costs one read.
	br        *bufio.Reader
	nextID    uint32
	everAlive bool
}

// DialPageServerOpts connects to a page server. The connection is
// established eagerly so an unreachable server fails here rather than at
// the first page fault.
func DialPageServerOpts(addr string, opts PageClientOpts) (*RemotePageSource, error) {
	c := &RemotePageSource{addr: addr, opts: opts.withDefaults(),
		br: bufio.NewReaderSize(nil, pageRespHdrLen+mem.PageSize)}
	reg := c.opts.Obs
	if reg == nil {
		reg = obs.New()
	}
	c.fetches = reg.Counter("pageclient.fetches")
	c.retries = reg.Counter("pageclient.retries")
	c.reconnects = reg.Counter("pageclient.reconnects")
	c.timeouts = reg.Counter("pageclient.timeouts")
	c.remoteErrs = reg.Counter("pageclient.remote_errors")
	c.bytes = reg.Counter("pageclient.bytes_read")
	c.desyncs = reg.Counter("pageclient.desync")
	if _, err := c.live(); err != nil { // nobody else holds c yet
		return nil, fmt.Errorf("criu: page client: %w", err)
	}
	return c, nil
}

// Stats returns a snapshot of the client counters.
func (c *RemotePageSource) Stats() PageClientStats {
	return PageClientStats{
		Fetches:      c.fetches.Value(),
		Retries:      c.retries.Value(),
		Reconnects:   c.reconnects.Value(),
		Timeouts:     c.timeouts.Value(),
		RemoteErrors: c.remoteErrs.Value(),
		BytesRead:    c.bytes.Value(),
		Desyncs:      c.desyncs.Value(),
	}
}

// Close tears down the connection; later fetches fail with
// ErrPageClientClosed. A fetch in flight is not aborted: Close waits for
// it, and its per-attempt deadlines bound the wait. Close is idempotent.
func (c *RemotePageSource) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.conn != nil {
		c.drop()
	}
	return nil
}

// FetchPage is ReadPage into a fresh page. It exists only for
// bench/staged.go and tests; ROADMAP item 2(d) removes its last non-test
// caller.
func (c *RemotePageSource) FetchPage(addr uint64) ([]byte, error) {
	page := new([mem.PageSize]byte)
	if err := c.ReadPage(addr, page); err != nil {
		return nil, err
	}
	return page[:], nil
}

// ReadPage implements PageSource with retry and reconnection.
func (c *RemotePageSource) ReadPage(addr uint64, dst *[mem.PageSize]byte) error {
	_, err := c.readRun(addr, dst, nil)
	return err
}

// readRun implements runReader: ReadPage whose first attempt also asks
// for the pages of addr's run that run wants. A retry asks for addr
// alone: the server reads a whole response before writing it, so a run
// delayed by one slow read would likely be delayed again on a retry.
func (c *RemotePageSource) readRun(addr uint64, dst *[mem.PageSize]byte, run *lazyRun) (landed int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	backoff := c.opts.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			c.retries.Inc()
			time.Sleep(backoff)
			if backoff < 32*c.opts.RetryBackoff {
				backoff *= 2
			}
		}
		n, err := c.roundTrip(addr, dst, run)
		landed += n
		if err == nil {
			c.fetches.Inc()
			c.bytes.Add(mem.PageSize)
			return landed, nil
		}
		if errors.Is(err, ErrPageClientClosed) {
			return landed, err
		}
		lastErr, run = err, nil
	}
	return landed, fmt.Errorf("criu: page fetch 0x%x failed after %d attempts: %w",
		addr, c.opts.MaxRetries+1, lastErr)
}

// roundTrip performs one fetch attempt and returns the run pages it
// landed; the caller holds c.mu. Any transport or framing error leaves
// the stream position unknown, so it drops the connection and the next
// attempt redials.
func (c *RemotePageSource) roundTrip(addr uint64, dst *[mem.PageSize]byte, run *lazyRun) (int, error) {
	conn, err := c.live()
	if err != nil {
		return 0, err
	}
	req := pageRequest{ID: c.nextID, Addr: addr}
	c.nextID++
	var land func(uint64, *[mem.PageSize]byte)
	if run != nil {
		req.Want, land = run.want(), run.land
	}
	landed, remote, err := requestPage(conn, c.br, req, dst, land, c.opts.FetchTimeout)
	c.bytes.Add(uint64(landed) * mem.PageSize)
	if err != nil {
		c.drop()
		if errors.Is(err, errPageDesync) {
			// A corrupt frame, not a closed conn: the retry redials
			// transparently, so this counter is the only visible trace.
			c.desyncs.Inc()
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			c.timeouts.Inc()
		}
		return landed, fmt.Errorf("criu: page fetch 0x%x: %w", addr, err)
	}
	if remote != "" {
		c.remoteErrs.Inc()
		return landed, &RemoteFetchError{Addr: addr, Msg: remote}
	}
	return landed, nil
}

// requestPage writes one request to conn and reads the response that
// answers it through br, conn's reader — the requested page into dst, the
// wanted pages of its run to land — both under one deadline, which is
// cleared before returning so it cannot fire during a later, unrelated
// fetch. A transport that cannot arm or clear the deadline is treated as
// broken — talking unbounded to it could hang forever. With one request
// in flight nothing may follow the response: a byte br holds past it is a
// desync of this fetch, not the next fetch's bad magic.
func requestPage(conn net.Conn, br *bufio.Reader, req pageRequest, dst *[mem.PageSize]byte, land func(uint64, *[mem.PageSize]byte), timeout time.Duration) (landed int, remote string, err error) {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return 0, "", err
	}
	defer func() {
		if cerr := conn.SetDeadline(time.Time{}); err == nil && cerr != nil {
			err = fmt.Errorf("clear deadline: %w", cerr)
		}
	}()
	if err := writePageRequest(conn, req); err != nil {
		return 0, "", err
	}
	landed, remote, err = readPageResponse(br, req, dst, land)
	if err == nil && br.Buffered() > 0 {
		err = fmt.Errorf("%w: %d bytes after the response to request %d", errPageDesync, br.Buffered(), req.ID)
	}
	return landed, remote, err
}

// live returns the connection, dialing and negotiating a fresh one if
// there is none; the caller holds c.mu.
func (c *RemotePageSource) live() (net.Conn, error) {
	if c.closed {
		return nil, ErrPageClientClosed
	}
	if c.conn != nil {
		return c.conn, nil
	}
	conn, err := c.dial()
	if err == nil {
		if err = pageHello(conn, c.opts.Codec, dialTimeout); err != nil {
			// The hello died mid-frame, leaving the stream position
			// unknown; the conn is unusable either way.
			_ = conn.Close()
		}
	}
	if err != nil {
		return nil, err
	}
	c.conn = conn
	c.br.Reset(conn)
	if c.everAlive {
		c.reconnects.Inc()
	}
	c.everAlive = true
	return conn, nil
}

func (c *RemotePageSource) dial() (net.Conn, error) {
	if c.opts.Dial != nil {
		return c.opts.Dial(c.addr)
	}
	return net.DialTimeout("tcp", c.addr, dialTimeout)
}

// drop tears down the current connection; the caller holds c.mu.
func (c *RemotePageSource) drop() {
	// The connection is condemned (by a failed request or by Close);
	// a failure to close it alters nothing.
	_ = c.conn.Close()
	c.conn = nil
}
