package criu

import (
	"math/bits"
	"net"
	"sync"
	"time"

	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/netserve"
	"github.com/dapper-sim/dapper/internal/obs"
)

// PageServer serves page requests over TCP using the frame protocol in
// pageproto.go. Each accepted connection is served by its own goroutine,
// one request at a time: read a request, read the page and the wanted
// pages of its run into the response, write the response. A ReadPage
// failure is reported to the client as an explicit error (or not-sent)
// frame instead of dropping the connection, so one bad page cannot
// desynchronize an otherwise healthy stream. The server reads every page
// through its PageSource's ReadPage, whatever the source is.
type PageServer struct {
	src PageSource

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

	srv *netserve.Server
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
		src:       src,
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
	s.srv = netserve.Serve(ln, s.serveConn)
	return s
}

// Addr returns the listen address.
func (s *PageServer) Addr() string { return s.srv.Addr() }

// Stats returns a snapshot of the server-side counters: every request
// frame received, bytes of page payload sent, and page reads answered with
// an error or not-sent frame.
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
func (s *PageServer) Close() error { return s.srv.Close() }

// runBuf is a response buffer, room for a run of maximal frames. They are
// pooled: a migration dials one connection and should not allocate one.
type runBuf = [runPages * (pageRespHdrLen + mem.PageSize)]byte

var runBufs = sync.Pool{New: func() any { return new(runBuf) }}

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
	// before the next request is read.
	buf := runBufs.Get().(*runBuf)
	defer runBufs.Put(buf)
	for {
		req, err := readPageRequest(conn)
		if err != nil || isHelloRequest(req) || req.Want&runBit(req.Addr) != 0 {
			// A second hello on a negotiated connection is a protocol
			// violation, not a renegotiation.
			return
		}
		resp, err := s.answer(buf[:], codec, req)
		if err == nil {
			_, err = conn.Write(resp)
		}
		if err != nil {
			return
		}
	}
}

// answer encodes the response to req into buf: req.Addr's frame, then
// one per wanted page in address order. The source fills each frame's
// payload region and the frame is encoded around it, packed behind the
// one before, so a page is copied once and the response leaves in one
// write — one syscall, and one roll of a lossy link's dice.
func (s *PageServer) answer(buf []byte, codec imgproto.Codec, req pageRequest) ([]byte, error) {
	s.reqs.Inc()
	n := 0
	addr, want := req.Addr, req.Want
	for left := bits.OnesCount16(want); left >= 0; left-- {
		page := (*[mem.PageSize]byte)(buf[n+pageRespHdrLen:])
		start := time.Now()
		ferr := s.src.ReadPage(addr, page)
		read := time.Now()
		s.svcLat.Observe(read.Sub(start))
		if ferr != nil {
			s.errsC.Inc()
		} else {
			s.bytesSent.Add(mem.PageSize)
		}
		off := int(int64(addr-req.Addr) / mem.PageSize)
		frame, rawN, err := encodePageFrame(buf[n:], codec, req.ID, off, left, ferr)
		s.codecNs.Observe(time.Since(read))
		if err != nil {
			return nil, err
		}
		s.frames.Inc()
		s.forms[frame[1]].Inc() // the codec byte encodePageFrame just wrote
		s.bytesRaw.Add(uint64(rawN))
		s.bytesWire.Add(uint64(len(frame)))
		n += len(frame)
		addr = runBase(req.Addr) + uint64(bits.TrailingZeros16(want))*mem.PageSize
		want &= want - 1
	}
	return buf[:n], nil
}
