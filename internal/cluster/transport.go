package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/parallel"
)

// ImageReceiver accepts checkpoint image directories over TCP — the scp
// step of a real cross-node deployment. The in-process Migrate path hands
// the same segments over by reference (transfer, wire.go); integration
// tests and multi-process deployments use this. Each connection carries
// one segmented codec stream (see wire.go).
//
// A malformed payload (missing magic, truncated header, truncated body,
// oversized image, undecodable directory) is dropped, counted in Errors,
// and does not affect other transfers. Concurrent inbound transfers beyond
// maxInflight are rejected at accept and counted the same way.
type ImageReceiver struct {
	ln net.Listener
	// sem bounds concurrent serving goroutines; a slot is taken before
	// each one is spawned and released when it exits.
	sem *parallel.Semaphore

	mu     sync.Mutex
	recv   []*criu.ImageDir
	conns  map[net.Conn]struct{}
	errs   uint64
	closed bool

	// notify wakes TakeWait blockers when a directory arrives; done is
	// closed by Close so blocked waiters fail fast instead of timing out.
	notify chan struct{}
	done   chan struct{}

	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// maxInflight bounds concurrent inbound transfers. A connection accepted
// while every slot is busy is dropped immediately and counted in Errors —
// backpressure instead of unbounded buffering of attacker-sized payloads.
const maxInflight = 8

// ListenImages starts a receiver on addr ("127.0.0.1:0" for tests).
func ListenImages(addr string) (*ImageReceiver, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: image receiver: %w", err)
	}
	r := &ImageReceiver{
		ln:     ln,
		sem:    parallel.NewSemaphore(maxInflight),
		conns:  make(map[net.Conn]struct{}),
		notify: make(chan struct{}, 1),
		done:   make(chan struct{}),
	}
	r.wg.Add(1)
	go r.acceptLoop()
	return r, nil
}

// Addr returns the listen address.
func (r *ImageReceiver) Addr() string { return r.ln.Addr().String() }

// Errors returns how many inbound transfers were discarded: malformed
// payloads plus connections rejected at the maxInflight bound.
func (r *ImageReceiver) Errors() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.errs
}

// Close stops the receiver, closes in-flight connections, and waits for
// its goroutines. It is idempotent: extra calls return the first call's
// result.
func (r *ImageReceiver) Close() error {
	r.closeOnce.Do(func() {
		close(r.done)
		r.mu.Lock()
		r.closed = true
		conns := make([]net.Conn, 0, len(r.conns))
		for c := range r.conns {
			conns = append(conns, c)
		}
		r.mu.Unlock()
		r.closeErr = r.ln.Close()
		for _, c := range conns {
			// The serving goroutine owns each conn and closes it on its
			// own exit; this forced close races that benignly, so a
			// double-close error here carries no signal.
			_ = c.Close()
		}
		r.wg.Wait()
	})
	return r.closeErr
}

// Take removes and returns the oldest received directory, or nil.
func (r *ImageReceiver) Take() *criu.ImageDir {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.recv) == 0 {
		return nil
	}
	d := r.recv[0]
	r.recv = r.recv[1:]
	if len(r.recv) > 0 {
		// Re-arm the signal: arrivals with no waiter parked collapse into
		// the single buffered token, so after consuming one directory the
		// token must be re-raised while more remain — otherwise a second
		// waiter sleeps its full timeout next to a non-empty queue.
		select {
		case r.notify <- struct{}{}:
		default:
		}
	}
	return d
}

// TakeWait blocks until a received directory is available and returns it.
// It is channel-notified — no polling — and fails with an error when the
// receiver is closed or nothing arrives within timeout. Multiple waiters
// are safe; each arrival wakes one.
func (r *ImageReceiver) TakeWait(timeout time.Duration) (*criu.ImageDir, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for {
		if d := r.Take(); d != nil {
			return d, nil
		}
		select {
		case <-r.notify:
			// Something arrived (or a sibling consumed it); re-check.
		case <-r.done:
			// Drain anything that raced with Close before giving up.
			if d := r.Take(); d != nil {
				return d, nil
			}
			return nil, fmt.Errorf("cluster: image receiver closed (%d malformed transfers)", r.Errors())
		case <-timer.C:
			return nil, fmt.Errorf("cluster: image receiver: nothing arrived within %v (%d malformed transfers)", timeout, r.Errors())
		}
	}
}

func (r *ImageReceiver) acceptLoop() {
	defer r.wg.Done()
	for {
		conn, err := r.ln.Accept()
		if err != nil {
			return
		}
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			// Rejecting an accept that raced Close; there is no caller
			// to report a close failure to.
			_ = conn.Close()
			return
		}
		if !r.sem.TryAcquire() {
			r.errs++
			r.mu.Unlock()
			// Over the inbound-transfer bound: shed the connection before
			// reading a byte. The sender sees the reset and can retry.
			_ = conn.Close()
			continue
		}
		r.conns[conn] = struct{}{}
		r.mu.Unlock()
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			defer r.sem.Release()
			dir, err := readImageDirFrom(conn)
			// The payload is fully read (or failed and counted); a close
			// error after that is peer-FIN noise.
			_ = conn.Close()
			r.mu.Lock()
			delete(r.conns, conn)
			if err != nil {
				r.errs++
			} else {
				r.recv = append(r.recv, dir)
			}
			r.mu.Unlock()
			if err == nil {
				// Wake a TakeWait blocker; the buffered channel makes the
				// signal level-triggered, so a wakeup is never lost even
				// with no waiter parked right now.
				select {
				case r.notify <- struct{}{}:
				default:
				}
			}
		}()
	}
}

// SendOpts tunes SendImagesOpts; the zero value sends uncompressed
// segments under a link-derived write deadline.
type SendOpts struct {
	// Codec is the per-segment wire codec; the zero value, CodecNone,
	// frames without compressing.
	Codec criu.Codec
	// Timeout bounds the whole send. Zero derives it from the link
	// model (shipTimeout), so a slow modeled link never trips the real
	// transport.
	Timeout time.Duration
	// Obs receives the wire telemetry ("wire.*"); nil disables it.
	Obs *obs.Registry
}

// shipTimeout is the host-time bound on moving n bytes over the real
// transport: 20x the modeled InfiniBand transfer time, floored at 2s.
func shipTimeout(n uint64) time.Duration {
	if t := 20 * InfiniBand.TransferTime(n); t > 2*time.Second {
		return t
	}
	return 2 * time.Second
}

// SendImagesOpts copies a checkpoint directory to a receiver over TCP,
// returning the marshaled image size and the bytes actually put on the
// wire (image plus framing; smaller when compression wins). The whole
// send runs under a write deadline so a stalled receiver fails the
// migration round instead of hanging it forever. A close failure after
// the writes is reported: it can mean the payload never flushed.
func SendImagesOpts(addr string, dir *criu.ImageDir, opts SendOpts) (raw, wire uint64, err error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, 0, fmt.Errorf("cluster: send images: %w", err)
	}
	defer func() {
		if cerr := conn.Close(); cerr != nil && err == nil {
			raw, wire, err = 0, 0, fmt.Errorf("cluster: send images: close: %w", cerr)
		}
	}()
	blob := dir.Marshal()
	raw = uint64(len(blob))
	timeout := opts.Timeout
	if timeout <= 0 {
		timeout = shipTimeout(raw)
	}
	// The deadline covers every write of this send and is cleared before
	// the close: a deadline left armed could fail the connection teardown
	// with a timeout that belongs to a payload already delivered.
	//lint:ignore wallclock write deadlines are real host-transport time by definition, never part of modeled migration cost
	if derr := conn.SetWriteDeadline(time.Now().Add(timeout)); derr != nil {
		return 0, 0, fmt.Errorf("cluster: send images: %w", derr)
	}
	if wire, err = writeImageStream(conn, blob, opts.Codec, imageSegment, opts.Obs); err != nil {
		return 0, 0, err
	}
	if derr := conn.SetWriteDeadline(time.Time{}); derr != nil {
		return 0, 0, fmt.Errorf("cluster: send images: clear deadline: %w", derr)
	}
	return raw, wire, nil
}
