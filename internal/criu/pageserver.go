package criu

import (
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
)

// PageServer serves page requests over TCP using the frame protocol in
// pageproto.go. Each accepted connection is served by its own goroutine,
// one request at a time: read a request, read the page into the response
// frame, write the frame. A ReadPage failure is reported to the client as an
// explicit error frame instead of dropping the connection, so one bad
// page cannot desynchronize an otherwise healthy stream.
type PageServer struct {
	src PageSource
	ln  net.Listener

	// Serving counters live in an obs registry ("pageserver.*"); the
	// service-latency histogram records every fetch, failed ones included.
	reqs, bytesSent, errsC *obs.Counter
	svcLat                 *obs.Histogram
	// Wire telemetry ("wire.*", names shared with the image transport; a
	// response frame is what wire.batches counts here): frames sent,
	// payload bytes before and after the codec, frames per form actually
	// sent (indexed by codec byte), and time spent encoding them.
	frames, bytesRaw, bytesWire *obs.Counter
	forms                       [len(wireFormCounters)]*obs.Counter
	codecNs                     *obs.Histogram

	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
}

// ServePages starts a TCP page server on addr ("127.0.0.1:0" for tests).
func ServePages(addr string, src PageSource) (*PageServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("criu: page server: %w", err)
	}
	return ServePagesOn(ln, src), nil
}

// ServePagesOn starts a page server on an existing listener with a private
// telemetry registry. Tests use this to interpose fault-injecting
// listeners (see FlakyListener); the server takes ownership of ln.
func ServePagesOn(ln net.Listener, src PageSource) *PageServer {
	return ServePagesObs(ln, src, nil)
}

// ServePagesObs starts a page server on an existing listener, recording
// into reg ("pageserver.*" counters, the service-latency histogram, and
// the "wire.*" telemetry). A nil reg gives the server a private
// registry so Stats keeps working. The server takes ownership of ln.
func ServePagesObs(ln net.Listener, src PageSource, reg *obs.Registry) *PageServer {
	if reg == nil {
		reg = obs.New()
	}
	s := &PageServer{
		src: src, ln: ln, conns: make(map[net.Conn]struct{}),
		reqs:      reg.Counter("pageserver.requests"),
		bytesSent: reg.Counter("pageserver.bytes_sent"),
		errsC:     reg.Counter("pageserver.errors"),
		svcLat:    reg.Histogram("pageserver.service_ns"),
		frames:    reg.Counter("wire.batches"),
		bytesRaw:  reg.Counter("wire.bytes_raw"),
		bytesWire: reg.Counter("wire.bytes_wire"),
		codecNs:   reg.Histogram("wire.codec_ns"),
	}
	for form, name := range wireFormCounters {
		s.forms[form] = reg.Counter(name)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listen address.
func (s *PageServer) Addr() string { return s.ln.Addr().String() }

// Stats returns a snapshot of the server-side counters: every request
// frame received, bytes of page payload sent, and fetches answered with an
// error frame.
func (s *PageServer) Stats() PageServerStats {
	return PageServerStats{
		Requests:  s.reqs.Value(),
		BytesSent: s.bytesSent.Value(),
		Errors:    s.errsC.Value(),
	}
}

// Close stops the listener, closes every open connection, and waits for
// the serving goroutines. It is idempotent: extra calls return the first
// call's result.
func (s *PageServer) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closed = true
		conns := make([]net.Conn, 0, len(s.conns))
		for c := range s.conns {
			conns = append(conns, c)
		}
		s.mu.Unlock()
		s.closeErr = s.ln.Close()
		for _, c := range conns {
			// Each serving goroutine closes its own conn on exit; this
			// forced close races that benignly, so a double-close error
			// carries no signal.
			_ = c.Close()
		}
		s.wg.Wait()
	})
	return s.closeErr
}

func (s *PageServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			// Either Close shut the listener or it failed fatally; in both
			// cases there is nothing more to accept.
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			// Rejecting an accept that raced Close; no caller to report
			// a close failure to.
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			// serveConn already drained the request stream; PageServer.Close
			// may have closed the conn first, so an error here is expected
			// double-close noise.
			_ = conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

func (s *PageServer) serveConn(conn net.Conn) {
	// The hello is mandatory: a peer that opens with anything else does
	// not speak this protocol.
	req, err := readPageRequest(conn)
	if err != nil || !isHelloRequest(req) {
		return
	}
	// Honor the requested codec if we can encode it.
	codec := imgproto.Codec(req.Addr &^ pageHelloAddrMask)
	if !codec.Requestable() {
		codec = imgproto.CodecNone
	}
	if writeHelloAck(conn, codec) != nil {
		return
	}
	// One response buffer, reused: the previous response is written
	// before the next request is read. The source fills its payload
	// region and the frame is encoded around it, so this side copies a
	// page once, when the source reads it.
	buf := make([]byte, pageRespHdrLen+mem.PageSize)
	page := (*[mem.PageSize]byte)(buf[pageRespHdrLen:])
	for {
		req, err := readPageRequest(conn)
		if err != nil || isHelloRequest(req) {
			// A second hello on a negotiated connection is a protocol
			// violation, not a renegotiation.
			return
		}
		start := time.Now()
		ferr := s.src.ReadPage(req.Addr, page)
		s.svcLat.Observe(time.Since(start))
		s.reqs.Inc()
		if ferr != nil {
			s.errsC.Inc()
		} else {
			s.bytesSent.Add(mem.PageSize)
		}
		start = time.Now()
		frame, rawN, err := encodePageResponse(buf, codec, req.ID, ferr)
		s.codecNs.Observe(time.Since(start))
		if err == nil {
			_, err = conn.Write(frame)
		}
		if err != nil {
			return
		}
		s.frames.Inc()
		s.forms[frame[1]].Inc() // the codec byte encodePageResponse just wrote
		s.bytesRaw.Add(uint64(rawN))
		s.bytesWire.Add(uint64(len(frame)))
	}
}
