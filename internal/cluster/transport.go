package cluster

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/netserve"
	"github.com/dapper-sim/dapper/internal/obs"
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
// maxInflight are shed before a byte is read and counted the same way.
type ImageReceiver struct {
	srv *netserve.Server
	// tokens bounds concurrent transfers: a handler takes one before it
	// reads a byte and returns it when the read ends.
	tokens chan struct{}
	// got queues received directories, oldest first.
	got  chan *criu.ImageDir
	errs atomic.Uint64

	// done is closed by Close, so blocked waiters fail fast instead of
	// timing out and a handler never waits on an untaken directory.
	done      chan struct{}
	closeOnce sync.Once
}

// maxInflight bounds concurrent inbound transfers. A connection accepted
// while every token is taken is dropped before a byte is read and
// counted in Errors — backpressure instead of unbounded buffering of
// attacker-sized payloads.
const maxInflight = 8

// ListenImages starts a receiver on addr ("127.0.0.1:0" for tests).
func ListenImages(addr string) (*ImageReceiver, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: image receiver: %w", err)
	}
	r := &ImageReceiver{
		tokens: make(chan struct{}, maxInflight),
		got:    make(chan *criu.ImageDir, maxInflight),
		done:   make(chan struct{}),
	}
	r.srv = netserve.Serve(ln, r.receive)
	return r, nil
}

// Addr returns the listen address.
func (r *ImageReceiver) Addr() string { return r.srv.Addr() }

// Errors returns how many inbound transfers were discarded: malformed
// payloads plus connections shed at the maxInflight bound.
func (r *ImageReceiver) Errors() uint64 { return r.errs.Load() }

// Close stops the receiver, closes in-flight connections, and waits for
// its goroutines. It is idempotent: extra calls return the first call's
// result.
func (r *ImageReceiver) Close() error {
	r.closeOnce.Do(func() { close(r.done) })
	return r.srv.Close()
}

// TakeWait blocks until a received directory is available and returns it.
// It fails with an error when the receiver is closed or nothing arrives
// within timeout. Multiple waiters are safe; each arrival wakes one.
func (r *ImageReceiver) TakeWait(timeout time.Duration) (*criu.ImageDir, error) {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case d := <-r.got:
		return d, nil
	case <-r.done:
		return nil, fmt.Errorf("cluster: image receiver closed (%d malformed transfers)", r.Errors())
	case <-timer.C:
		return nil, fmt.Errorf("cluster: image receiver: nothing arrived within %v (%d malformed transfers)", timeout, r.Errors())
	}
}

// receive reads one transfer from conn. Over the inflight bound it sheds
// the connection before reading a byte; the sender sees the reset and
// can retry.
func (r *ImageReceiver) receive(conn net.Conn) {
	select {
	case r.tokens <- struct{}{}:
		defer func() { <-r.tokens }()
	default:
		r.errs.Add(1)
		return
	}
	dir, err := readImageDirFrom(conn)
	if err != nil {
		r.errs.Add(1)
		return
	}
	select {
	case r.got <- dir:
	case <-r.done:
	}
}

// SendOpts tunes SendImagesOpts; the zero value sends uncompressed
// segments. The whole send runs under a write deadline derived from the
// link model (shipTimeout), so a slow modeled link never trips the real
// transport.
type SendOpts struct {
	// Codec is the per-segment wire codec; the zero value, CodecNone,
	// frames without compressing.
	Codec criu.Codec
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
// the writes is reported: it can mean the payload never flushed. Nothing
// on the sending side joins the image (writeImageParts).
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
	// The deadline covers every write of this send and is cleared before
	// the close: a deadline left armed could fail the connection teardown
	// with a timeout that belongs to a payload already delivered.
	//lint:ignore wallclock write deadlines are real host-transport time by definition, never part of modeled migration cost
	if derr := conn.SetWriteDeadline(time.Now().Add(shipTimeout(dir.Size()))); derr != nil {
		return 0, 0, fmt.Errorf("cluster: send images: %w", derr)
	}
	if raw, wire, err = writeImageParts(conn, dir.Parts(), opts.Codec, imageSegment, opts.Obs); err != nil {
		return 0, 0, err
	}
	if derr := conn.SetWriteDeadline(time.Time{}); derr != nil {
		return 0, 0, fmt.Errorf("cluster: send images: clear deadline: %w", derr)
	}
	return raw, wire, nil
}
