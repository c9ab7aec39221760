package criu

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/parallel"
)

// PageClientOpts tunes the resilient page client. The zero value selects
// the defaults noted on each field.
type PageClientOpts struct {
	// Conns is the connection-pool size (default 2). Fetches are
	// round-robined across the pool and pipelined within a connection:
	// many requests can be in flight at once, matched to responses by
	// request ID.
	Conns int
	// FetchTimeout bounds one fetch attempt, including any redial
	// (default 2s). A timed-out request is abandoned — its late response,
	// if any, is discarded by request ID — and retried.
	FetchTimeout time.Duration
	// MaxRetries is how many times a failed or timed-out fetch is retried
	// (default 4). Each retry may land on a different pool connection and
	// redials broken ones.
	MaxRetries int
	// RetryBackoff is the delay before the first retry (default 5ms),
	// doubling per subsequent retry up to 32x.
	RetryBackoff time.Duration
	// Prefetch asynchronously requests this many pages following every
	// demand-fetched page (default 0 = disabled), hiding round-trip
	// latency for sequential access patterns. Prefetched pages are held
	// in a bounded cache until the fault handler asks for them. At most
	// prefetchSlots requests are in flight whatever the window size.
	Prefetch int
	// DialTimeout bounds one (re)connection attempt (default 1s),
	// including the hello exchange.
	DialTimeout time.Duration
	// RedialBudget bounds consecutive failed connection incarnations per
	// pool slot (default 8). Dial failures, failed hello exchanges, and
	// connections that die before delivering a single well-formed frame
	// all count; any good frame resets the count. A slot past its budget
	// is poisoned: further fetches through it fail immediately with
	// ErrRedialExhausted (counted in pageclient.redial_exhausted)
	// instead of redialing a server that accepts connections but never
	// speaks the protocol — an unguarded client would redial such a
	// server forever, once per retry of every faulted page.
	RedialBudget int
	// Codec is the batch codec requested from the server in each
	// connection's hello; the zero value, CodecNone, batches without
	// compression.
	Codec imgproto.Codec
	// Dial overrides the dialer; tests inject faulty transports here.
	Dial func(addr string) (net.Conn, error)
	// Obs, if set, is the telemetry registry the client records into
	// ("pageclient.*" counters plus the fault-latency histogram). Nil
	// gives the client a private registry so Stats keeps working.
	Obs *obs.Registry
}

func (o PageClientOpts) withDefaults() PageClientOpts {
	if o.Conns <= 0 {
		o.Conns = 2
	}
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
	Fetches      uint64 // successful FetchPage calls
	Retries      uint64 // attempts beyond each fetch's first
	Reconnects   uint64 // redials after a pool connection broke
	Timeouts     uint64 // attempts abandoned at FetchTimeout
	RemoteErrors uint64 // explicit error frames from the server
	BytesRead    uint64 // page payload bytes received on demand
	// PrefetchIssued / Prefetched / PrefetchHits count speculative page
	// requests started, completed into the cache, and later consumed by a
	// fault.
	PrefetchIssued uint64
	Prefetched     uint64
	PrefetchHits   uint64
	// PrefetchSkipped counts window pages skipped because every prefetch
	// slot was busy; PrefetchPeak is the highest number of prefetch
	// requests ever in flight at once (always <= the bound).
	PrefetchSkipped uint64
	PrefetchPeak    uint64
	// Batches counts batch frames received; BatchDesyncs counts
	// connections dropped because a batch frame violated its own framing.
	Batches      uint64
	BatchDesyncs uint64
	// RedialsExhausted counts pool slots poisoned after RedialBudget
	// consecutive failed connection incarnations.
	RedialsExhausted uint64
}

// ErrPageClientClosed is returned by FetchPage after Close.
var ErrPageClientClosed = errors.New("criu: page client closed")

// ErrRedialExhausted is returned by FetchPage once a pool slot has burned
// through its RedialBudget of consecutive failed connection incarnations.
// It is sticky and terminal: retrying cannot help against a server that
// keeps accepting connections and keeps failing them.
var ErrRedialExhausted = errors.New("criu: page connection redial budget exhausted")

// errConnBroken reports a request that raced with its connection's
// teardown before it could be written; the retry loop redials.
var errConnBroken = errors.New("criu: page connection broken")

// RemotePageSource is the client side of the TCP page server: a connection
// pool with pipelined request IDs, per-fetch deadlines, bounded
// retry-and-reconnect, and optional sequential prefetch. It implements
// PageSource and is safe for concurrent use.
type RemotePageSource struct {
	addr string
	opts PageClientOpts

	next  atomic.Uint32 // round-robin cursor over conns
	conns []*pageConn

	// Transport counters live in an obs registry (PageClientOpts.Obs or a
	// private one) instead of a hand-rolled struct; Stats snapshots them.
	fetches, retries, reconnects   *obs.Counter
	timeouts, remoteErrs, bytes    *obs.Counter
	prefIssued, prefDone, prefHits *obs.Counter
	faultLat                       *obs.Histogram

	mu     sync.Mutex
	cache  map[uint64][]byte // prefetched pages; nil value = in flight
	closed bool

	closeOnce  sync.Once
	prefetchWG sync.WaitGroup
	// prefSem bounds the prefetch goroutine fan-out to prefetchSlots;
	// prefActive/prefPeak track the realized concurrency (peak is
	// reported in Stats and pinned by tests).
	prefSem    *parallel.Semaphore
	prefSkips  *obs.Counter
	prefActive atomic.Int64
	prefPeak   atomic.Int64

	batchesC, batchDesync *obs.Counter

	redialExhausted *obs.Counter
}

// DialPageServer connects to a page server with default options.
func DialPageServer(addr string) (*RemotePageSource, error) {
	return DialPageServerOpts(addr, PageClientOpts{})
}

// DialPageServerOpts connects to a page server. The first pool connection
// is established eagerly so an unreachable server fails here rather than at
// the first page fault; the rest are dialed on demand.
func DialPageServerOpts(addr string, opts PageClientOpts) (*RemotePageSource, error) {
	c := &RemotePageSource{
		addr:  addr,
		opts:  opts.withDefaults(),
		cache: make(map[uint64][]byte),
	}
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
	c.prefIssued = reg.Counter("pageclient.prefetch_issued")
	c.prefDone = reg.Counter("pageclient.prefetched")
	c.prefHits = reg.Counter("pageclient.prefetch_hits")
	c.prefSkips = reg.Counter("pageclient.prefetch_skipped")
	c.batchesC = reg.Counter("pageclient.batches")
	c.batchDesync = reg.Counter("pageclient.batch_desync")
	c.redialExhausted = reg.Counter("pageclient.redial_exhausted")
	c.faultLat = reg.Histogram("pageclient.fault_ns")
	c.prefSem = parallel.NewSemaphore(prefetchSlots)
	c.conns = make([]*pageConn, c.opts.Conns)
	for i := range c.conns {
		c.conns[i] = &pageConn{client: c}
	}
	if _, err := c.conns[0].state(); err != nil {
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
		PrefetchIssued:   c.prefIssued.Value(),
		Prefetched:       c.prefDone.Value(),
		PrefetchHits:     c.prefHits.Value(),
		PrefetchSkipped:  c.prefSkips.Value(),
		PrefetchPeak:     uint64(c.prefPeak.Load()),
		Batches:          c.batchesC.Value(),
		BatchDesyncs:     c.batchDesync.Value(),
		RedialsExhausted: c.redialExhausted.Value(),
	}
}

// Close tears down the pool and fails any in-flight fetches. It is
// idempotent.
func (c *RemotePageSource) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.mu.Unlock()
		for _, pc := range c.conns {
			pc.mu.Lock()
			cs := pc.cur
			pc.mu.Unlock()
			if cs != nil {
				pc.drop(cs, ErrPageClientClosed)
			}
		}
		c.prefetchWG.Wait()
	})
	return nil
}

func (c *RemotePageSource) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// FetchPage implements PageSource with retry, reconnection, and prefetch.
// Every fetch — hit, miss, or failure — lands in the fault-latency
// histogram, so the post-copy tail is measurable end to end.
func (c *RemotePageSource) FetchPage(addr uint64) ([]byte, error) {
	start := time.Now()
	if page := c.cacheTake(addr); page != nil {
		c.prefHits.Inc()
		c.fetches.Inc()
		c.faultLat.Observe(time.Since(start))
		return page, nil
	}
	page, err := c.fetchWithRetry(addr)
	c.faultLat.Observe(time.Since(start))
	if err != nil {
		return nil, err
	}
	c.fetches.Inc()
	c.bytes.Add(uint64(len(page)))
	c.maybePrefetch(addr)
	return page, nil
}

func (c *RemotePageSource) fetchWithRetry(addr uint64) ([]byte, error) {
	backoff := c.opts.RetryBackoff
	var lastErr error
	for attempt := 0; attempt <= c.opts.MaxRetries; attempt++ {
		if c.isClosed() {
			return nil, ErrPageClientClosed
		}
		if attempt > 0 {
			c.retries.Inc()
			time.Sleep(backoff)
			if backoff < 32*c.opts.RetryBackoff {
				backoff *= 2
			}
		}
		pc := c.pick()
		page, err := pc.roundTrip(addr, c.opts.FetchTimeout)
		if err == nil {
			return page, nil
		}
		if errors.Is(err, ErrPageClientClosed) || errors.Is(err, ErrRedialExhausted) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("criu: page fetch 0x%x failed after %d attempts: %w",
		addr, c.opts.MaxRetries+1, lastErr)
}

func (c *RemotePageSource) pick() *pageConn {
	i := c.next.Add(1)
	return c.conns[int(i)%len(c.conns)]
}

func (c *RemotePageSource) dial() (net.Conn, error) {
	if c.isClosed() {
		return nil, ErrPageClientClosed
	}
	if c.opts.Dial != nil {
		return c.opts.Dial(c.addr)
	}
	return net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
}

// --- prefetch cache ---

// maxPrefetchCache bounds the number of cached-or-in-flight prefetch
// entries; past it new prefetches are skipped rather than evicting.
const maxPrefetchCache = 256

func (c *RemotePageSource) cacheTake(addr uint64) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	page, ok := c.cache[addr]
	if !ok || page == nil {
		// Absent, or still in flight: fall through to a demand fetch.
		return nil
	}
	delete(c.cache, addr)
	return page
}

// cacheReserve marks addr as in flight; it reports false if the page is
// already cached/in flight or the cache is full.
func (c *RemotePageSource) cacheReserve(addr uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || len(c.cache) >= maxPrefetchCache {
		return false
	}
	if _, ok := c.cache[addr]; ok {
		return false
	}
	c.cache[addr] = nil
	return true
}

func (c *RemotePageSource) cacheFill(addr uint64, page []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.cache[addr]; ok && p == nil {
		c.cache[addr] = page
		c.prefDone.Inc()
	}
}

func (c *RemotePageSource) cacheAbort(addr uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.cache[addr]; ok && p == nil {
		delete(c.cache, addr)
	}
}

// prefetchSlots bounds the concurrent prefetch requests of one client.
// When every slot is busy the rest of a window is skipped rather than
// queued — those pages are demand-fetched, with retries, if actually
// faulted — so a large Prefetch can never spawn an unbounded fan-out.
const prefetchSlots = 8

// maybePrefetch speculatively requests the window of pages following addr.
// Prefetches are single-attempt and best-effort: a failure just means the
// page will be demand-fetched (with retries) when actually faulted. The
// fan-out is bounded by prefetchSlots semaphore slots — each goroutine
// holds a slot from before it is spawned until it exits, so no window
// size can exceed the bound.
func (c *RemotePageSource) maybePrefetch(addr uint64) {
	for i := 1; i <= c.opts.Prefetch; i++ {
		paddr := addr + uint64(i)*mem.PageSize
		if !c.prefSem.TryAcquire() {
			c.prefSkips.Add(uint64(c.opts.Prefetch - i + 1))
			return
		}
		if !c.cacheReserve(paddr) {
			c.prefSem.Release()
			continue
		}
		c.prefIssued.Inc()
		c.notePrefetchStart()
		c.prefetchWG.Add(1)
		go func(paddr uint64) {
			defer c.prefetchWG.Done()
			defer c.prefSem.Release()
			defer c.prefActive.Add(-1)
			page, err := c.pick().roundTrip(paddr, c.opts.FetchTimeout)
			if err != nil {
				c.cacheAbort(paddr)
				return
			}
			c.cacheFill(paddr, page)
		}(paddr)
	}
}

// notePrefetchStart counts a prefetch slot as active (from before its
// goroutine is spawned) and folds the new level into the peak.
func (c *RemotePageSource) notePrefetchStart() {
	n := c.prefActive.Add(1)
	for {
		p := c.prefPeak.Load()
		if n <= p || c.prefPeak.CompareAndSwap(p, n) {
			return
		}
	}
}

// --- pooled connection ---

type pendingFetch struct {
	addr uint64
	ch   chan pageResult
}

type pageResult struct {
	page []byte
	err  error
}

// connState is one incarnation of a pooled connection. The pending map
// ties written requests to the reader goroutine; a new incarnation gets a
// fresh map so a stale reader cannot touch requests issued after a redial.
type connState struct {
	conn net.Conn
	// br buffers the response stream; all reads go through it (a read
	// from conn directly would lose whatever it has buffered).
	br *bufio.Reader

	mu      sync.Mutex
	pending map[uint32]pendingFetch
	nextID  uint32
	dead    bool

	// sawFrame records whether this incarnation ever delivered a
	// well-formed response frame. Touched only by the incarnation's
	// readLoop goroutine; an incarnation that dies without one counts
	// against the slot's redial budget.
	sawFrame bool
}

type pageConn struct {
	client *RemotePageSource

	mu        sync.Mutex
	cur       *connState
	everAlive bool
	// fails counts consecutive connection incarnations that never
	// produced a good frame (dial errors, hello failures, instant
	// desyncs). At RedialBudget the slot is poisoned: exhausted is
	// sticky and state() stops dialing.
	fails     int
	exhausted bool
}

// noteFailLocked records one failed incarnation; callers hold pc.mu.
func (pc *pageConn) noteFailLocked() {
	pc.fails++
	if pc.fails >= pc.client.opts.RedialBudget && !pc.exhausted {
		pc.exhausted = true
		pc.client.redialExhausted.Inc()
	}
}

// noteFail is noteFailLocked for the readLoop side. A teardown raced with
// client Close is not a server failure and never counts.
func (pc *pageConn) noteFail() {
	if pc.client.isClosed() {
		return
	}
	pc.mu.Lock()
	pc.noteFailLocked()
	pc.mu.Unlock()
}

// resetFails clears the consecutive-failure count: the slot reached a
// server that actually speaks the protocol.
func (pc *pageConn) resetFails() {
	pc.mu.Lock()
	pc.fails = 0
	pc.mu.Unlock()
}

// state returns the live connection, dialing a fresh one if needed.
func (pc *pageConn) state() (*connState, error) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.exhausted {
		return nil, ErrRedialExhausted
	}
	if pc.cur != nil {
		return pc.cur, nil
	}
	conn, err := pc.client.dial()
	if err != nil {
		if !errors.Is(err, ErrPageClientClosed) {
			pc.noteFailLocked()
		}
		return nil, err
	}
	// The hello is synchronous — before the read loop exists — so the
	// reply frame is unambiguously ours.
	if err := negotiatePageBatch(conn, pc.client.opts.Codec, pc.client.opts.DialTimeout); err != nil {
		// The exchange died mid-frame, leaving the stream position
		// unknown; the conn is unusable either way.
		_ = conn.Close()
		pc.noteFailLocked()
		return nil, err
	}
	if pc.everAlive {
		pc.client.reconnects.Inc()
	}
	pc.everAlive = true
	cs := &connState{
		conn: conn, br: bufio.NewReader(conn),
		pending: make(map[uint32]pendingFetch),
	}
	pc.cur = cs
	//lint:ignore goreap readLoop exits when its conn closes: drop() (called by Close and on any transport error) closes the conn, which unblocks the read
	go pc.readLoop(cs)
	return cs, nil
}

// drop tears down one connection incarnation, delivering err to every
// request still pending on it. Safe to call from both the writer and the
// reader; only the first call acts.
func (pc *pageConn) drop(cs *connState, err error) {
	pc.mu.Lock()
	if pc.cur == cs {
		pc.cur = nil
	}
	pc.mu.Unlock()
	cs.mu.Lock()
	if cs.dead {
		cs.mu.Unlock()
		return
	}
	cs.dead = true
	pend := cs.pending
	cs.pending = nil
	cs.mu.Unlock()
	// The incarnation is already condemned (err is being delivered to
	// every pending fetch); a close failure on it changes nothing.
	_ = cs.conn.Close()
	for _, pf := range pend {
		pf.ch <- pageResult{err: err}
	}
}

func (pc *pageConn) readLoop(cs *connState) {
	for {
		resps, err := readPageBatch(cs.br)
		if err != nil {
			if errors.Is(err, errBatchDesync) {
				// A corrupt frame, not a closed conn: count it before
				// dropping — the retry path redials transparently, so
				// this counter is the only visible trace.
				pc.client.batchDesync.Inc()
			}
			if !cs.sawFrame {
				pc.noteFail()
			}
			pc.drop(cs, err)
			return
		}
		if !cs.sawFrame {
			cs.sawFrame = true
			pc.resetFails()
		}
		pc.client.batchesC.Inc()
		for _, resp := range resps {
			pc.dispatch(cs, resp)
		}
	}
}

// dispatch routes one decoded response frame to the fetch that asked.
func (pc *pageConn) dispatch(cs *connState, resp pageResponse) {
	cs.mu.Lock()
	pf, ok := cs.pending[resp.ID]
	delete(cs.pending, resp.ID)
	cs.mu.Unlock()
	if !ok {
		// Response to a request that timed out client-side: the frame
		// is still well-formed, so just discard it and keep the
		// connection synchronized.
		return
	}
	if resp.Remote != "" {
		pc.client.remoteErrs.Inc()
		pf.ch <- pageResult{err: &RemoteFetchError{Addr: pf.addr, Msg: resp.Remote}}
		return
	}
	pf.ch <- pageResult{page: resp.Page}
}

// roundTrip performs one fetch attempt on this pool slot with a deadline.
func (pc *pageConn) roundTrip(addr uint64, timeout time.Duration) ([]byte, error) {
	cs, err := pc.state()
	if err != nil {
		return nil, err
	}
	ch := make(chan pageResult, 1)
	cs.mu.Lock()
	if cs.dead {
		cs.mu.Unlock()
		return nil, errConnBroken
	}
	id := cs.nextID
	cs.nextID++
	cs.pending[id] = pendingFetch{addr: addr, ch: ch}
	// The write deadline covers only this request's frame and is cleared
	// right after: a deadline left armed would fail a later pipelined
	// write on this pooled connection with a timeout that belongs to a
	// request long gone. A transport that cannot arm the deadline is
	// treated as broken — writing unbounded to it could hang forever.
	werr := cs.conn.SetWriteDeadline(time.Now().Add(timeout))
	if werr == nil {
		werr = writePageRequest(cs.conn, pageRequest{ID: id, Addr: addr})
		if cerr := cs.conn.SetWriteDeadline(time.Time{}); werr == nil && cerr != nil {
			werr = cerr
		}
	}
	cs.mu.Unlock()
	if werr != nil {
		// drop delivers the error to our channel along with everyone
		// else's, so fall through to the select either way.
		pc.drop(cs, werr)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res.page, res.err
	case <-timer.C:
		cs.mu.Lock()
		delete(cs.pending, id)
		cs.mu.Unlock()
		pc.client.timeouts.Inc()
		return nil, fmt.Errorf("criu: page fetch 0x%x timed out after %v", addr, timeout)
	}
}
