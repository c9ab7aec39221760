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
	// DialTimeout bounds one (re)connection attempt (default 1s),
	// including the hello.
	DialTimeout time.Duration
	// RedialBudget bounds consecutive failed connection incarnations
	// (default 8). Dial failures, failed hellos, and connections
	// that die — or time out — before delivering a single well-formed
	// frame all count; any good frame resets the count. A client past its
	// budget is poisoned: further fetches fail immediately with
	// ErrRedialExhausted (counted in pageclient.redial_exhausted)
	// instead of redialing a server that accepts connections but never
	// speaks the protocol — an unguarded client would redial such a
	// server forever, once per retry of every faulted page.
	RedialBudget int
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
	if o.DialTimeout <= 0 {
		o.DialTimeout = time.Second
	}
	if o.RedialBudget <= 0 {
		o.RedialBudget = 8
	}
	return o
}

// PageClientStats counts client-side transport activity. It is a snapshot
// of the client's obs counters (see Stats).
type PageClientStats struct {
	Fetches      uint64 // successful ReadPage calls
	Retries      uint64 // attempts beyond each fetch's first
	Reconnects   uint64 // redials after the connection broke
	Timeouts     uint64 // attempts abandoned at FetchTimeout
	RemoteErrors uint64 // explicit error frames from the server
	BytesRead    uint64 // page payload bytes received
	// Desyncs counts connections dropped because a response frame
	// violated the framing, as opposed to plain teardown.
	Desyncs uint64
	// RedialsExhausted is 1 once the client is poisoned after RedialBudget
	// consecutive failed connection incarnations.
	RedialsExhausted uint64
}

// ErrPageClientClosed is returned by ReadPage after Close.
var ErrPageClientClosed = errors.New("criu: page client closed")

// ErrRedialExhausted is returned by ReadPage once the client has burned
// through its RedialBudget of consecutive failed connection incarnations.
// It is sticky and terminal: retrying cannot help against a server that
// keeps accepting connections and keeps failing them.
var ErrRedialExhausted = errors.New("criu: page connection redial budget exhausted")

// RemotePageSource is the client side of the TCP page server: one
// connection with one request in flight, a deadline per attempt, and
// bounded retry-and-reconnect. The restored process faults one page at a
// time on the goroutine that steps it, so there is never a second
// request to overlap with the first. It implements PageSource and is
// safe for concurrent use: concurrent fetches take turns.
type RemotePageSource struct {
	addr string
	opts PageClientOpts

	// Transport counters live in an obs registry (PageClientOpts.Obs or a
	// private one); Stats snapshots them.
	fetches, retries, reconnects *obs.Counter
	timeouts, remoteErrs, bytes  *obs.Counter
	desyncs, redialExhausted     *obs.Counter

	// mu is held for the whole of a fetch, retries included; the fields
	// below it belong to whoever holds it.
	mu sync.Mutex
	// br reads the current connection through a buffer of one whole
	// frame, so a response usually costs one read.
	br        *bufio.Reader
	nextID    uint32
	everAlive bool
	// sawFrame records whether the current connection incarnation has
	// delivered a well-formed response frame; one dropped without any
	// counts against the redial budget.
	sawFrame bool
	// fails counts consecutive incarnations that never produced a good
	// frame (dial errors, hello failures, instant desyncs). At
	// RedialBudget the client is poisoned: live stops dialing, so nothing
	// can reset the count again.
	fails int

	// connMu guards conn and closed, and nothing is awaited under it, so
	// Close can reach the socket of a fetch blocked in a read under mu.
	connMu sync.Mutex
	conn   net.Conn
	closed bool
}

// DialPageServer connects to a page server with default options.
func DialPageServer(addr string) (*RemotePageSource, error) {
	return DialPageServerOpts(addr, PageClientOpts{})
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
	c.redialExhausted = reg.Counter("pageclient.redial_exhausted")
	if _, err := c.live(); err != nil { // nobody else holds c yet
		return nil, fmt.Errorf("criu: page client: %w", err)
	}
	return c, nil
}

// Stats returns a snapshot of the client counters.
func (c *RemotePageSource) Stats() PageClientStats {
	return PageClientStats{
		Fetches:          c.fetches.Value(),
		Retries:          c.retries.Value(),
		Reconnects:       c.reconnects.Value(),
		Timeouts:         c.timeouts.Value(),
		RemoteErrors:     c.remoteErrs.Value(),
		BytesRead:        c.bytes.Value(),
		Desyncs:          c.desyncs.Value(),
		RedialsExhausted: c.redialExhausted.Value(),
	}
}

// Close tears down the connection and fails a fetch in flight with
// ErrPageClientClosed. It may be called from any goroutine and is
// idempotent.
func (c *RemotePageSource) Close() error {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	c.closed = true
	if c.conn != nil {
		// Nothing is flushed by this close and nobody can act on its
		// failing: the fetch in flight, if any, fails either way.
		_ = c.conn.Close()
		c.conn = nil
	}
	return nil
}

func (c *RemotePageSource) isClosed() bool {
	c.connMu.Lock()
	defer c.connMu.Unlock()
	return c.closed
}

// FetchPage is ReadPage into a fresh page. It exists only for
// bench/staged.go and tests; ROADMAP item 1(d) removes its last non-test
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
		err := c.roundTrip(addr, dst)
		if err == nil {
			c.fetches.Inc()
			c.bytes.Add(mem.PageSize)
			return nil
		}
		if errors.Is(err, ErrPageClientClosed) || errors.Is(err, ErrRedialExhausted) {
			return err
		}
		lastErr = err
	}
	return fmt.Errorf("criu: page fetch 0x%x failed after %d attempts: %w",
		addr, c.opts.MaxRetries+1, lastErr)
}

// roundTrip performs one fetch attempt; the caller holds c.mu. Any
// transport or framing error leaves the stream position unknown, so it
// drops the connection and the next attempt redials.
func (c *RemotePageSource) roundTrip(addr uint64, dst *[mem.PageSize]byte) error {
	conn, err := c.live()
	if err != nil {
		return err
	}
	req := pageRequest{ID: c.nextID, Addr: addr}
	c.nextID++
	resp, err := requestPage(conn, c.br, req, dst, c.opts.FetchTimeout)
	if err != nil {
		c.drop(conn)
		if c.isClosed() {
			// Close tore the connection down under us: not a server
			// failure, and never counted as one.
			return ErrPageClientClosed
		}
		if errors.Is(err, errPageDesync) {
			// A corrupt frame, not a closed conn: the retry redials
			// transparently, so this counter is the only visible trace.
			c.desyncs.Inc()
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			c.timeouts.Inc()
		}
		if !c.sawFrame {
			c.noteFail()
		}
		return fmt.Errorf("criu: page fetch 0x%x: %w", addr, err)
	}
	if !c.sawFrame {
		// The client reached a server that actually speaks the protocol.
		c.sawFrame = true
		c.fails = 0
	}
	if resp.Remote != "" {
		c.remoteErrs.Inc()
		return &RemoteFetchError{Addr: addr, Msg: resp.Remote}
	}
	return nil
}

// requestPage writes one request to conn and reads the response that
// answers it into dst through br, conn's reader, both under one deadline,
// which is cleared before returning so it cannot fire during a later,
// unrelated fetch. A transport that cannot arm or clear the deadline is
// treated as broken — talking unbounded to it could hang forever. With
// one request in flight nothing may follow the response: a byte br holds
// past it is a desync of this fetch, not the next fetch's bad magic.
func requestPage(conn net.Conn, br *bufio.Reader, req pageRequest, dst *[mem.PageSize]byte, timeout time.Duration) (resp pageResponse, err error) {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return pageResponse{}, err
	}
	defer func() {
		if cerr := conn.SetDeadline(time.Time{}); err == nil && cerr != nil {
			err = fmt.Errorf("clear deadline: %w", cerr)
		}
	}()
	if err := writePageRequest(conn, req); err != nil {
		return pageResponse{}, err
	}
	resp, err = readPageFrame(br, dst)
	switch {
	case err != nil:
	case resp.ID != req.ID:
		err = fmt.Errorf("%w: response to request %d while %d is in flight", errPageDesync, resp.ID, req.ID)
	case br.Buffered() > 0:
		err = fmt.Errorf("%w: %d bytes after the response to request %d", errPageDesync, br.Buffered(), req.ID)
	}
	return resp, err
}

// live returns the connection, dialing and negotiating a fresh one if
// there is none; the caller holds c.mu.
func (c *RemotePageSource) live() (net.Conn, error) {
	if c.fails >= c.opts.RedialBudget {
		return nil, ErrRedialExhausted
	}
	c.connMu.Lock()
	conn, closed := c.conn, c.closed
	c.connMu.Unlock()
	if closed {
		return nil, ErrPageClientClosed
	}
	if conn != nil {
		return conn, nil
	}
	conn, err := c.dial()
	if err == nil {
		if err = pageHello(conn, c.opts.Codec, c.opts.DialTimeout); err != nil {
			// The hello died mid-frame, leaving the stream position
			// unknown; the conn is unusable either way.
			_ = conn.Close()
		}
	}
	if err != nil {
		c.noteFail()
		return nil, err
	}
	c.connMu.Lock()
	if c.closed {
		c.connMu.Unlock()
		_ = conn.Close() // Close won the race; this conn was never handed out
		return nil, ErrPageClientClosed
	}
	c.conn = conn
	c.connMu.Unlock()
	c.br.Reset(conn)
	if c.everAlive {
		c.reconnects.Inc()
	}
	c.everAlive, c.sawFrame = true, false
	return conn, nil
}

func (c *RemotePageSource) dial() (net.Conn, error) {
	if c.opts.Dial != nil {
		return c.opts.Dial(c.addr)
	}
	return net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
}

// drop tears down a connection incarnation after a failed request.
func (c *RemotePageSource) drop(conn net.Conn) {
	c.connMu.Lock()
	if c.conn == conn {
		c.conn = nil
	}
	c.connMu.Unlock()
	// The incarnation is already condemned (its error is on its way to
	// the caller); a failure to close it alters nothing.
	_ = conn.Close()
}

// noteFail records one failed incarnation; the caller holds c.mu.
func (c *RemotePageSource) noteFail() {
	c.fails++
	if c.fails == c.opts.RedialBudget {
		c.redialExhausted.Inc()
	}
}
