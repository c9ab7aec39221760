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
// pages of its run into the response, write the response. A failed
// ReadPage is answered — with an error frame, or a wanted page left out —
// so one bad page cannot desynchronize an otherwise healthy stream. The
// server reads every page through its PageSource's ReadPage.
type PageServer struct {
	src PageSource

	// Serving counters live in an obs registry ("pageserver.*"); the
	// service-latency histogram records every fetch, failed ones included.
	reqs, bytesSent, errsC *obs.Counter
	svcLat                 *obs.Histogram
	// Wire telemetry ("wire.*", names shared with the image transport; a
	// response is what wire.batches counts here): responses sent, payload
	// bytes before and after the codec, responses per form actually sent
	// (indexed by codec byte), and time spent encoding them.
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
// frame received, bytes of page payload sent, and page reads that failed.
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

// runBuf is a response buffer, room for a header and a run of pages.
// They are pooled: a migration dials one connection and should not
// allocate one.
type runBuf = [pageRespHdrLen + runPages*mem.PageSize]byte

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

// answer encodes the response to req into buf: req.Addr's page, then
// each wanted page in address order, read by the source into the payload
// region of buf behind the one before and encoded with one Compress, so
// a page is copied once and the response leaves in one write — one
// syscall, and one roll of a lossy link's dice. A wanted page that fails
// to read is left out of the response; if req.Addr's does, the response
// is an ERR frame and the rest of the run is not read.
func (s *PageServer) answer(buf []byte, codec imgproto.Codec, req pageRequest) ([]byte, error) {
	s.reqs.Inc()
	status, sent, n := byte(pageStatusOK), uint16(0), 0 // n: payload bytes before the codec
	for addr, want := req.Addr, req.Want; ; want &= want - 1 {
		start := time.Now()
		err := s.src.ReadPage(addr, (*[mem.PageSize]byte)(buf[pageRespHdrLen+n:]))
		s.svcLat.Observe(time.Since(start))
		if err != nil {
			s.errsC.Inc()
		}
		switch {
		case err == nil:
			s.bytesSent.Add(mem.PageSize)
			sent, n = sent|runBit(addr), n+mem.PageSize
		case addr == req.Addr:
			status, codec, want = pageStatusErr, imgproto.CodecNone, 0
			n = copy(buf[pageRespHdrLen:pageRespHdrLen+maxPageErrMsg], err.Error())
		}
		if want == 0 {
			break
		}
		addr = runBase(req.Addr) + uint64(bits.TrailingZeros16(want))*mem.PageSize
	}
	start := time.Now()
	frame, err := encodePageResponse(buf, codec, status, req.ID, sent&^runBit(req.Addr), n)
	s.codecNs.Observe(time.Since(start))
	if err != nil {
		return nil, err
	}
	s.frames.Inc()
	s.forms[frame[1]].Inc() // the codec byte encodePageResponse just wrote
	s.bytesRaw.Add(uint64(n))
	s.bytesWire.Add(uint64(len(frame)))
	return frame, nil
}
