package criu

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/imgproto/imgprototest"
	"github.com/dapper-sim/dapper/internal/mem"
)

// Byte offsets of the response header's fields (pageproto.go).
const (
	respCodecOff  = 1
	respStatusOff = 2
	respIDOff     = 3
	respRawOff    = 7
	respWireOff   = 11
)

// respFrame is newPageResponse, failing t on an encoding error.
func respFrame(t testing.TB, codec imgproto.Codec, id uint32, page []byte, fetchErr error) []byte {
	t.Helper()
	frame, err := newPageResponse(codec, id, page, fetchErr)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// newPageResponse is encodePageResponse over a fresh buffer holding page.
func newPageResponse(codec imgproto.Codec, id uint32, page []byte, fetchErr error) ([]byte, error) {
	buf := make([]byte, pageRespHdrLen+mem.PageSize)
	copy(buf[pageRespHdrLen:], page)
	frame, _, err := encodePageResponse(buf, codec, id, fetchErr)
	return frame, err
}

// readPageResponse is readPageFrame into a fresh page.
func readPageResponse(r io.Reader) (pageResponse, error) {
	return readPageFrame(r, new([mem.PageSize]byte))
}

func TestPageBatchRoundTrip(t *testing.T) {
	for _, codec := range []imgproto.Codec{imgproto.CodecNone, imgproto.CodecFlate} {
		t.Run(codec.String(), func(t *testing.T) {
			// Three frames back to back on one stream: the reader must
			// consume exactly one frame per call.
			var stream bytes.Buffer
			for _, f := range [][]byte{
				respFrame(t, codec, 1, pagePattern(0), nil),
				respFrame(t, codec, 2, nil, errors.New("no such page")),
				respFrame(t, codec, 3, pagePattern(7*mem.PageSize), nil),
			} {
				// Compress never expands: a frame is at most header + raw
				// payload, whatever codec was asked for.
				if len(f) > pageRespHdrLen+mem.PageSize {
					t.Errorf("frame of %d bytes exceeds a page + header", len(f))
				}
				stream.Write(f)
			}
			for i, want := range []struct {
				addr   uint64
				remote string
			}{{0, ""}, {0, "no such page"}, {7 * mem.PageSize, ""}} {
				resp, err := readPageResponse(&stream)
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if resp.ID != uint32(i+1) {
					t.Errorf("frame %d ID = %d, want %d", i, resp.ID, i+1)
				}
				if resp.Remote != want.remote {
					t.Errorf("frame %d message %q, want %q", i, resp.Remote, want.remote)
				}
				if want.remote == "" {
					checkPage(t, want.addr, resp.Page)
				} else if resp.Page != nil {
					t.Errorf("frame %d: error frame carries a page", i)
				}
			}
			if stream.Len() != 0 {
				t.Errorf("%d bytes left after the last frame", stream.Len())
			}
		})
	}
}

// TestPageBatchFlateShrinks pins that the flate codec actually compresses
// a compressible page — a zero page here, like the untouched tail of a
// guest heap — and that an error message never goes out compressed.
func TestPageBatchFlateShrinks(t *testing.T) {
	frame := respFrame(t, imgproto.CodecFlate, 1, make([]byte, mem.PageSize), nil)
	if len(frame) >= pageRespHdrLen+mem.PageSize/8 {
		t.Errorf("flate frame of a zero page is %d bytes", len(frame))
	}
	frame = respFrame(t, imgproto.CodecFlate, 2, nil, errors.New(strings.Repeat("a", 4*maxPageErrMsg)))
	if got := imgproto.Codec(frame[respCodecOff]); got != imgproto.CodecNone {
		t.Errorf("error frame went out as %s", got)
	}
	if len(frame) != pageRespHdrLen+maxPageErrMsg {
		t.Errorf("error frame of %d bytes, want the message cut to %d", len(frame), maxPageErrMsg)
	}
}

// malformedPageFrame is one way a response frame can violate the protocol.
type malformedPageFrame struct {
	name  string
	frame []byte
	// desync: the violation must be flagged errPageDesync, which a merely
	// truncated stream (a clean teardown mid-frame) must NOT be.
	desync bool
	// atHeader: the frame must be refused on its header alone, before a
	// payload byte is read — or a buffer for one allocated.
	atHeader bool
}

// malformedPageFrames is every class of framing violation, built by
// mutating a well-formed frame. It also seeds FuzzReadPageResponse.
func malformedPageFrames(t testing.TB) []malformedPageFrame {
	page := pagePattern(mem.PageSize)
	ok := func(mutate func(b []byte) []byte) []byte {
		return mutate(respFrame(t, imgproto.CodecNone, 9, page, nil))
	}
	fail := func(mutate func(b []byte) []byte) []byte {
		return mutate(respFrame(t, imgproto.CodecNone, 9, nil, errors.New("disk on fire")))
	}
	put := binary.BigEndian.PutUint32
	return []malformedPageFrame{
		{"bad magic", ok(func(b []byte) []byte { b[0] = 0x5A; return b }), true, true},
		{"bad codec byte", ok(func(b []byte) []byte { b[respCodecOff] = 0x7F; return b }), true, true},
		{"bad status byte", ok(func(b []byte) []byte { b[respStatusOff] = pageStatusHello; return b }), true, true},
		{"raw size over limit", ok(func(b []byte) []byte { put(b[respRawOff:], 1<<24); return b }), true, true},
		{"page frame short of a page", ok(func(b []byte) []byte {
			put(b[respRawOff:], mem.PageSize-8)
			put(b[respWireOff:], mem.PageSize-8)
			return b[:len(b)-8]
		}), true, true},
		{"wire exceeds raw", ok(func(b []byte) []byte {
			put(b[respWireOff:], mem.PageSize+1)
			return append(b, 0x00) // keep the payload read satisfiable
		}), true, true},
		{"uncompressed payload short of raw", ok(func(b []byte) []byte {
			put(b[respWireOff:], mem.PageSize-8)
			return b[:len(b)-8]
		}), true, false},
		{"error frame over limit", fail(func(b []byte) []byte {
			b = append(b[:pageRespHdrLen], make([]byte, maxPageErrMsg+1)...)
			put(b[respRawOff:], maxPageErrMsg+1)
			put(b[respWireOff:], maxPageErrMsg+1)
			return b
		}), true, true},
		{"error frame with a codec", fail(func(b []byte) []byte { b[respCodecOff] = byte(imgproto.CodecFlate); return b }), true, true},
		{"trailing bytes", func() []byte {
			b := respFrame(t, imgproto.CodecFlate, 9, page, nil)
			put(b[respWireOff:], uint32(len(b)-pageRespHdrLen+2))
			return append(b, 0xAA, 0xBB)
		}(), true, false},
		{"garbled flate payload", ok(func(b []byte) []byte {
			b[respCodecOff] = byte(imgproto.CodecFlate) // none-payload labeled flate
			return b
		}), true, false},
		{"truncated payload", ok(func(b []byte) []byte { return b[:len(b)-10] }), false, false},
		{"truncated header", ok(func(b []byte) []byte { return b[:pageRespHdrLen-1] }), false, false},
	}
}

// TestReadPageBatchDesync feeds readPageResponse every class of framing
// violation.
func TestReadPageBatchDesync(t *testing.T) {
	for _, tc := range malformedPageFrames(t) {
		t.Run(tc.name, func(t *testing.T) {
			r := bytes.NewReader(tc.frame)
			_, err := readPageResponse(r)
			if err == nil {
				t.Fatal("corrupt response frame decoded without error")
			}
			if got := errors.Is(err, errPageDesync); got != tc.desync {
				t.Errorf("errors.Is(err, errPageDesync) = %v, want %v (err: %v)", got, tc.desync, err)
			}
			if read := len(tc.frame) - r.Len(); tc.atHeader && read != pageRespHdrLen {
				t.Errorf("reader consumed %d bytes of a frame its %d-byte header condemns", read, pageRespHdrLen)
			}
		})
	}
}

// FuzzReadPageResponse: the one reader of bytes the page server sends
// never panics, returns a whole page or a message or an error, and turns
// a header that asks for more than a page away without reading — so
// without allocating for — a byte of payload.
func FuzzReadPageResponse(f *testing.F) {
	for _, tc := range malformedPageFrames(f) {
		f.Add(tc.frame)
	}
	f.Add(respFrame(f, imgproto.CodecNone, 1, pagePattern(0), nil))
	f.Add(respFrame(f, imgproto.CodecFlate, 2, pagePattern(mem.PageSize), nil))
	f.Add(respFrame(f, imgproto.CodecFlate, 3, make([]byte, mem.PageSize), nil))
	f.Add(respFrame(f, imgproto.CodecNone, 4, nil, errors.New("backing store gone")))
	f.Fuzz(func(t *testing.T, frame []byte) {
		r := bytes.NewReader(frame)
		resp, err := readPageResponse(r)
		if err == nil && len(resp.Page) != mem.PageSize && resp.Remote == "" {
			t.Fatalf("accepted a frame with a %d-byte page and no message", len(resp.Page))
		}
		if err == nil && resp.Page != nil && resp.Remote != "" {
			t.Fatal("accepted a frame as both a page and an error")
		}
		if len(frame) < pageRespHdrLen {
			return
		}
		raw := binary.BigEndian.Uint32(frame[respRawOff:])
		wire := binary.BigEndian.Uint32(frame[respWireOff:])
		if raw > mem.PageSize || wire > mem.PageSize {
			if err == nil {
				t.Fatalf("accepted a frame of %d raw, %d wire bytes", raw, wire)
			}
			if read := len(frame) - r.Len(); read != pageRespHdrLen {
				t.Fatalf("read %d bytes of a frame whose header asks for more than a page", read)
			}
		}
	})
}

// TestPageServerRequiresHello: the hello is mandatory. A peer whose first
// frame is an ordinary page request gets the connection closed without a
// byte in reply, and the request is never served.
func TestPageServerRequiresHello(t *testing.T) {
	srv, err := ServePages("127.0.0.1:0", &mapSource{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writePageRequest(conn, pageRequest{ID: 0, Addr: 3 * mem.PageSize}); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn, "a non-hello first frame")
	if got := srv.Stats().Requests; got != 0 {
		t.Errorf("server served %d requests on a connection that never said hello", got)
	}
}

// TestPageServerRefusesSecondHello: the hello opens a connection and
// nothing else. A second one, after a page has been served, is a protocol
// violation that closes the connection — there is no renegotiation.
func TestPageServerRefusesSecondHello(t *testing.T) {
	srv, err := ServePages("127.0.0.1:0", &mapSource{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := pageHello(conn, imgproto.CodecNone, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	resp, err := requestPage(conn, bufio.NewReader(conn), pageRequest{ID: 0, Addr: 3 * mem.PageSize}, new([mem.PageSize]byte), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	checkPage(t, 3*mem.PageSize, resp.Page)
	if err := writePageRequest(conn, helloRequest(imgproto.CodecFlate)); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, conn, "a second hello")
	if got := srv.Stats().Requests; got != 1 {
		t.Errorf("server counted %d requests, want the 1 page", got)
	}
}

// expectClosed fails unless the peer closes conn without sending a byte.
func expectClosed(t *testing.T, conn net.Conn, after string) {
	t.Helper()
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	n, rerr := conn.Read(b[:])
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if n != 0 || !errors.Is(rerr, io.EOF) {
		t.Fatalf("read after %s: n=%d err=%v, want a clean close", after, n, rerr)
	}
}

// fakePageServer serves the page protocol on a loopback listener until
// the test ends: it answers every hello with CodecNone and request req on
// the connNo-th connection (from 1) with the bytes respond returns, in
// one write.
func fakePageServer(t *testing.T, respond func(connNo int, req pageRequest) []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// wg.Wait must run after ln.Close (LIFO cleanups): the accept
	// goroutine only exits once the listener dies.
	var wg sync.WaitGroup
	t.Cleanup(wg.Wait)
	t.Cleanup(func() {
		// Test-server teardown; accept-loop exit is the observable effect.
		_ = ln.Close()
	})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for connNo := 1; ; connNo++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(c net.Conn, connNo int) {
				defer wg.Done()
				// Serving goroutine owns the conn for its whole life.
				defer func() { _ = c.Close() }()
				req, err := readPageRequest(c)
				if err != nil || !isHelloRequest(req) {
					return
				}
				if err := writeHelloAck(c, imgproto.CodecNone); err != nil {
					return
				}
				for {
					req, err := readPageRequest(c)
					if err != nil {
						return
					}
					if _, err := c.Write(respond(connNo, req)); err != nil {
						return
					}
				}
			}(conn, connNo)
		}
	}()
	return ln.Addr().String()
}

// TestPageBatchDesyncRecovery serves a response frame that violates the
// framing — a codec byte no decoder exists for, a reqID other than the one
// in flight — on the first connection. The client must drop that
// connection, count the desync, redial, and complete the fetch on the
// replacement.
func TestPageBatchDesyncRecovery(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(frame []byte)
	}{
		{"bad codec byte", func(frame []byte) { frame[respCodecOff] = 0x7F }},
		{"reqID not in flight", func(frame []byte) { frame[respIDOff+3] ^= 0x01 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr := fakePageServer(t, func(connNo int, req pageRequest) []byte {
				frame, err := newPageResponse(imgproto.CodecNone, req.ID, pagePattern(req.Addr), nil)
				if err == nil && connNo == 1 {
					tc.corrupt(frame)
				}
				return frame
			})
			c, err := DialPageServerOpts(addr, PageClientOpts{
				Codec:      imgproto.CodecFlate,
				MaxRetries: 4, RetryBackoff: time.Millisecond, FetchTimeout: time.Second,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			page, err := c.FetchPage(5 * mem.PageSize)
			if err != nil {
				t.Fatalf("fetch never recovered from the desync: %v", err)
			}
			checkPage(t, 5*mem.PageSize, page)
			st := c.Stats()
			if st.Desyncs != 1 {
				t.Errorf("Desyncs = %d, want 1 for the one corrupt frame", st.Desyncs)
			}
			if st.Reconnects == 0 {
				t.Error("client recovered without redialing — desync conn was reused")
			}
			if st.Fetches != 1 || st.Retries == 0 {
				t.Errorf("Fetches = %d, Retries = %d; want one fetch that retried", st.Fetches, st.Retries)
			}
		})
	}
}

// TestPageResponseTrailingBytes: with one request in flight nothing may
// follow a response, so bytes that arrive behind a well-formed frame are
// a desync of the fetch that read them — the connection is dropped and
// the fetch completes on a fresh one — not a bad magic on the next fetch.
// The frame is deflated, so it and the junk fit the client's read buffer
// together.
func TestPageResponseTrailingBytes(t *testing.T) {
	addr := fakePageServer(t, func(connNo int, req pageRequest) []byte {
		frame, err := newPageResponse(imgproto.CodecFlate, req.ID, pagePattern(req.Addr), nil)
		if err == nil && connNo == 1 {
			frame = append(frame, 0x5A, 0x5A, 0x5A)
		}
		return frame
	})
	c, err := DialPageServerOpts(addr, PageClientOpts{
		Codec:      imgproto.CodecFlate,
		MaxRetries: 4, RetryBackoff: time.Millisecond, FetchTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i, want := range []PageClientStats{
		{Fetches: 1, Retries: 1, Reconnects: 1, Desyncs: 1, BytesRead: mem.PageSize},
		{Fetches: 2, Retries: 1, Reconnects: 1, Desyncs: 1, BytesRead: 2 * mem.PageSize},
	} {
		addr := uint64(5+i) * mem.PageSize
		page, err := c.FetchPage(addr)
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		checkPage(t, addr, page)
		if st := c.Stats(); st != want {
			t.Errorf("after fetch %d: %+v, want %+v", i, st, want)
		}
	}
}

// wordPlaneFrame hand-builds the OK frame carrying page in the word-plane
// form (imgproto.CodecFlateWords), which CodecFlate only chooses by itself
// for payloads far larger than a page.
func wordPlaneFrame(t *testing.T, id uint32, page []byte) []byte {
	t.Helper()
	wire := imgprototest.FlateWords(page, 0)
	frame := respFrame(t, imgproto.CodecNone, id, page, nil)[:pageRespHdrLen]
	frame[respCodecOff] = byte(imgproto.CodecFlateWords)
	binary.BigEndian.PutUint32(frame[respWireOff:], uint32(len(wire)))
	return append(frame, wire...)
}

// TestPageCodecDecodableNotRequestable draws, on the page protocol's
// three codec bytes, the line imgproto draws between a codec one may ask
// for and a form a payload may arrive in. The word-plane form is what
// CodecFlate makes of a big enough integer-shaped payload by itself:
// a response header naming it decodes, a hello asking for it is answered
// like one asking for a codec that does not exist — with CodecNone — and
// an acknowledgment promising it is malformed.
func TestPageCodecDecodableNotRequestable(t *testing.T) {
	addr := uint64(3) * mem.PageSize
	page := pagePattern(addr)
	unknown := respFrame(t, imgproto.CodecNone, 7, page, nil)
	unknown[respCodecOff] = 0x7F

	srv, err := ServePages("127.0.0.1:0", &mapSource{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, tc := range []struct {
		codec     imgproto.Codec
		frame     []byte
		decodes   bool           // false: desync
		helloAck  imgproto.Codec // what a server answers a hello asking for codec
		ackAccept bool           // whether a client accepts an ack naming codec
	}{
		{imgproto.CodecNone, respFrame(t, imgproto.CodecNone, 7, page, nil), true, imgproto.CodecNone, true},
		{imgproto.CodecFlate, respFrame(t, imgproto.CodecFlate, 7, page, nil), true, imgproto.CodecFlate, true},
		{imgproto.CodecFlateWords, wordPlaneFrame(t, 7, page), true, imgproto.CodecNone, false},
		{0x7F, unknown, false, imgproto.CodecNone, false},
	} {
		t.Run(tc.codec.String(), func(t *testing.T) {
			if got := imgproto.Codec(tc.frame[respCodecOff]); got != tc.codec {
				t.Fatalf("frame went out as %s, want %s", got, tc.codec)
			}
			resp, err := readPageResponse(bytes.NewReader(tc.frame))
			if !tc.decodes {
				if !errors.Is(err, errPageDesync) {
					t.Errorf("frame: error %v, want a desync", err)
				}
			} else if err != nil {
				t.Errorf("frame: %v", err)
			} else {
				checkPage(t, addr, resp.Page)
			}

			conn, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
				t.Fatal(err)
			}
			if err := writePageRequest(conn, helloRequest(tc.codec)); err != nil {
				t.Fatal(err)
			}
			var ack [pageHelloAckLen]byte
			_, rerr := io.ReadFull(conn, ack[:])
			if err := conn.SetDeadline(time.Time{}); err != nil {
				t.Fatal(err)
			}
			if rerr != nil {
				t.Fatal(rerr)
			}
			if got := imgproto.Codec(ack[6]); got != tc.helloAck {
				t.Errorf("hello asking for %s acknowledged as %s, want %s", tc.codec, got, tc.helloAck)
			}

			client, server := net.Pipe()
			defer client.Close()
			defer server.Close()
			acked := make(chan struct{})
			go func() {
				defer close(acked)
				if _, err := readPageRequest(server); err == nil {
					_ = writeHelloAck(server, tc.codec) // the client's verdict is the test
				}
			}()
			err = pageHello(client, imgproto.CodecFlate, 2*time.Second)
			if (err == nil) != tc.ackAccept {
				t.Errorf("ack naming %s: hello returned %v; accepted should be %v", tc.codec, err, tc.ackAccept)
			}
			<-acked
		})
	}
}
