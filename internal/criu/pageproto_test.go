package criu

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"slices"
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
	respSentOff   = 7
	respRawOff    = 9
	respWireOff   = 13
)

// answerWith is a PageServer's response to req, encoded with codec, the
// pages read from src.
func answerWith(codec imgproto.Codec, req pageRequest, src PageSource) ([]byte, error) {
	buf := new(runBuf)
	return (&PageServer{src: src}).answer(buf[:], codec, req)
}

// respFrame is newPageResponse, failing t on an encoding error.
func respFrame(t testing.TB, codec imgproto.Codec, id uint32, page []byte, fetchErr error) []byte {
	t.Helper()
	frame, err := newPageResponse(codec, id, page, fetchErr)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// newPageResponse is the server's response to request id for one page,
// whose read returns page or fetchErr.
func newPageResponse(codec imgproto.Codec, id uint32, page []byte, fetchErr error) ([]byte, error) {
	return answerWith(codec, pageRequest{ID: id, Addr: 5 * mem.PageSize}, fetchFunc(func(uint64) ([]byte, error) {
		return page, fetchErr
	}))
}

// pageResponse is the response to a request for one page, decoded.
type pageResponse struct {
	ID     uint32
	Page   []byte // nil when the frame is an error frame
	Remote string // the server's message for an error frame
}

// readOnePage is readPageResponse of the response to a request for one
// page — request id — into a fresh page.
func readOnePage(r io.Reader, id uint32) (pageResponse, error) {
	page := new([mem.PageSize]byte)
	_, remote, err := readPageResponse(r, pageRequest{ID: id, Addr: 5 * mem.PageSize}, page, nil)
	if err != nil || remote != "" {
		return pageResponse{ID: id, Remote: remote}, err
	}
	return pageResponse{ID: id, Page: page[:]}, nil
}

func TestPageBatchRoundTrip(t *testing.T) {
	for _, codec := range []imgproto.Codec{imgproto.CodecNone, imgproto.CodecFlate} {
		t.Run(codec.String(), func(t *testing.T) {
			// Three responses back to back on one stream: the reader must
			// consume exactly one per call.
			var stream bytes.Buffer
			for _, f := range [][]byte{
				respFrame(t, codec, 1, pagePattern(0), nil),
				respFrame(t, codec, 2, nil, errors.New("no such page")),
				respFrame(t, codec, 3, pagePattern(7*mem.PageSize), nil),
			} {
				// Compress never expands: a response is at most header +
				// raw payload, whatever codec was asked for.
				if len(f) > pageRespHdrLen+mem.PageSize {
					t.Errorf("response of %d bytes exceeds a page + header", len(f))
				}
				stream.Write(f)
			}
			for i, want := range []struct {
				addr   uint64
				remote string
			}{{0, ""}, {0, "no such page"}, {7 * mem.PageSize, ""}} {
				resp, err := readOnePage(&stream, uint32(i+1))
				if err != nil {
					t.Fatalf("response %d: %v", i, err)
				}
				if resp.ID != uint32(i+1) {
					t.Errorf("response %d ID = %d, want %d", i, resp.ID, i+1)
				}
				if resp.Remote != want.remote {
					t.Errorf("response %d message %q, want %q", i, resp.Remote, want.remote)
				}
				if want.remote == "" {
					checkPage(t, want.addr, resp.Page)
				} else if resp.Page != nil {
					t.Errorf("response %d: error frame carries a page", i)
				}
			}
			if stream.Len() != 0 {
				t.Errorf("%d bytes left after the last response", stream.Len())
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

// runRequest is the request the run responses below answer: page 5 of
// the run at 0x40000, with pages 1, 6, 7 and 12 of it wanted too.
var runRequest = pageRequest{ID: 9, Addr: 0x40000 + 5*mem.PageSize, Want: 1<<1 | 1<<6 | 1<<7 | 1<<12}

// runResponse is the server's response to runRequest, encoded with
// codec, from a source that fails the reads of the pages fail names.
func runResponse(t testing.TB, codec imgproto.Codec, fail uint16) []byte {
	t.Helper()
	resp, err := answerWith(codec, runRequest, fetchFunc(func(addr uint64) ([]byte, error) {
		if fail&runBit(addr) != 0 {
			return nil, errors.New("page withheld")
		}
		return pagePattern(addr), nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got := imgproto.Codec(resp[respCodecOff]); fail&runBit(runRequest.Addr) == 0 && got != codec {
		t.Fatalf("run response went out as %s, want %s", got, codec)
	}
	return resp
}

// TestReadPageResponseRun: read as the answer to runRequest, a response
// lands exactly the pages its sent field names, in address order, each
// once, and the reader stops at its last byte. A wanted page the source
// could not read is left out and does not land; a requested page it
// could not read ends the response with the server's message.
func TestReadPageResponseRun(t *testing.T) {
	for _, codec := range []imgproto.Codec{imgproto.CodecNone, imgproto.CodecFlate} {
		for _, fail := range []uint16{0, 1 << 7, runBit(runRequest.Addr)} {
			resp := runResponse(t, codec, fail)
			r := bytes.NewReader(resp)
			dst := new([mem.PageSize]byte)
			var got []uint64
			landed, remote, err := readPageResponse(r, runRequest, dst, func(addr uint64, frame *[mem.PageSize]byte) {
				checkPage(t, addr, frame[:])
				got = append(got, addr)
			})
			if err != nil || r.Len() != 0 {
				t.Fatalf("%s, failing 0x%04x: %v with %d bytes left", codec, fail, err, r.Len())
			}
			var want []uint64
			if fail&runBit(runRequest.Addr) != 0 {
				if remote != "page withheld" {
					t.Errorf("%s: error response read as message %q", codec, remote)
				}
			} else {
				checkPage(t, runRequest.Addr, dst[:])
				for w := runRequest.Want &^ fail; w != 0; w &= w - 1 {
					want = append(want, runBase(runRequest.Addr)+uint64(bits.TrailingZeros16(w))*mem.PageSize)
				}
			}
			if !slices.Equal(got, want) || landed != len(got) {
				t.Errorf("%s, failing 0x%04x: landed %x (reported %d), want %x", codec, fail, got, landed, want)
			}
		}
	}
}

// malformedResponse is one way a response to runRequest can violate the
// protocol.
type malformedResponse struct {
	name string
	resp []byte
	// desync: the violation must be flagged errPageDesync, which a merely
	// truncated stream (a clean teardown mid-response) must NOT be.
	desync bool
	// atHeader: the response must be refused on its header alone, before
	// a payload byte is read — or a buffer for one allocated.
	atHeader bool
}

// malformedResponses is every class of framing violation, each built by
// changing a well-formed response to runRequest. It drives
// TestReadPageResponseDesync and seeds FuzzReadPageResponse.
func malformedResponses(t testing.TB) []malformedResponse {
	put16, put32 := binary.BigEndian.PutUint16, binary.BigEndian.PutUint32
	change := func(resp []byte, f func(b []byte) []byte) []byte { return f(bytes.Clone(resp)) }
	ok := runResponse(t, imgproto.CodecNone, 0)
	flate := runResponse(t, imgproto.CodecFlate, 0)
	fail := runResponse(t, imgproto.CodecNone, runBit(runRequest.Addr))
	okPages := uint32(1+bits.OnesCount16(runRequest.Want)) * mem.PageSize
	// sendMore names page i in ok's sent field and carries a page more.
	sendMore := func(i uint) []byte {
		return change(ok, func(b []byte) []byte {
			put16(b[respSentOff:], runRequest.Want|1<<i)
			put32(b[respRawOff:], okPages+mem.PageSize)
			put32(b[respWireOff:], okPages+mem.PageSize)
			return append(b, make([]byte, mem.PageSize)...)
		})
	}
	return []malformedResponse{
		{"bad magic", change(ok, func(b []byte) []byte { b[0] = 0x5A; return b }), true, true},
		{"bad codec byte", change(ok, func(b []byte) []byte { b[respCodecOff] = 0x7F; return b }), true, true},
		{"bad status byte", change(ok, func(b []byte) []byte { b[respStatusOff] = pageStatusHello; return b }), true, true},
		{"retired NOT SENT status", change(ok, func(b []byte) []byte { b[respStatusOff] = 0x03; return b }), true, true},
		{"reqID not in flight", change(ok, func(b []byte) []byte { b[respIDOff+3] ^= 0x01; return b }), true, true},
		{"sent page outside want", sendMore(8), true, true},
		{"sent bit on the requested page", sendMore(5), true, true},
		{"rawLen short of sent", change(ok, func(b []byte) []byte {
			put32(b[respRawOff:], okPages-mem.PageSize)
			put32(b[respWireOff:], okPages-mem.PageSize)
			return b[:len(b)-mem.PageSize]
		}), true, true},
		{"rawLen over sent", change(ok, func(b []byte) []byte { put16(b[respSentOff:], runRequest.Want&^(1<<12)); return b }), true, true},
		{"raw size over a run", change(ok, func(b []byte) []byte { put32(b[respRawOff:], 1<<24); return b }), true, true},
		{"error frame sending pages", change(fail, func(b []byte) []byte { put16(b[respSentOff:], 1<<6); return b }), true, true},
		{"error frame with a codec", change(fail, func(b []byte) []byte { b[respCodecOff] = byte(imgproto.CodecFlate); return b }), true, true},
		{"error frame over 1 KiB", change(fail, func(b []byte) []byte {
			b = append(b[:pageRespHdrLen], make([]byte, maxPageErrMsg+1)...)
			put32(b[respRawOff:], maxPageErrMsg+1)
			put32(b[respWireOff:], maxPageErrMsg+1)
			return b
		}), true, true},
		{"wire exceeds raw", change(flate, func(b []byte) []byte {
			put32(b[respWireOff:], okPages+1)
			return append(b, make([]byte, okPages+1)...) // keep the payload read satisfiable
		}), true, true},
		{"uncompressed payload short of raw", change(ok, func(b []byte) []byte {
			put32(b[respWireOff:], okPages-8)
			return b[:len(b)-8]
		}), true, true},
		{"flate payload decodes short", change(runResponse(t, imgproto.CodecFlate, 1<<12), func(b []byte) []byte {
			put16(b[respSentOff:], runRequest.Want)
			put32(b[respRawOff:], okPages)
			return b
		}), true, false},
		{"garbled flate payload", change(ok, func(b []byte) []byte {
			b[respCodecOff] = byte(imgproto.CodecFlate) // none-payload labeled flate
			return b
		}), true, false},
		{"byte past the response", append(bytes.Clone(ok), pageRespMagic), true, false},
		{"truncated payload", ok[:len(ok)-10], false, false},
		{"truncated header", ok[:pageRespHdrLen-1], false, false},
	}
}

// TestReadPageResponseDesync feeds readPageResponse every class of
// framing violation, as the answer to runRequest.
func TestReadPageResponseDesync(t *testing.T) {
	for _, tc := range malformedResponses(t) {
		t.Run(tc.name, func(t *testing.T) {
			r := bytes.NewReader(tc.resp)
			landed, _, err := readPageResponse(r, runRequest, new([mem.PageSize]byte), func(uint64, *[mem.PageSize]byte) {})
			if err == nil && r.Len() > 0 {
				// The reader stops at the response's last byte; what
				// follows is requestPage's to refuse
				// (TestPageResponseTrailingBytes).
				err = fmt.Errorf("%w: %d bytes after the response", errPageDesync, r.Len())
			}
			if err == nil {
				t.Fatal("malformed response read without error")
			}
			if got := errors.Is(err, errPageDesync); got != tc.desync {
				t.Errorf("errors.Is(err, errPageDesync) = %v, want %v (err: %v)", got, tc.desync, err)
			}
			if read := len(tc.resp) - r.Len(); tc.atHeader && (read != pageRespHdrLen || landed != 0) {
				t.Errorf("reader consumed %d bytes and landed %d pages of a response its %d-byte header condemns", read, landed, pageRespHdrLen)
			}
		})
	}
}

// FuzzReadPageResponse: the one reader of bytes the page server sends
// never panics. Read as the response to a request for one page it
// returns a whole page or a message or an error. Read as the response to
// runRequest it lands only pages of the want set, each at most once,
// turns a header asking for more than a run of pages away without
// reading — so without allocating for — a byte of payload, and never
// reads past a header and a run of pages.
func FuzzReadPageResponse(f *testing.F) {
	for _, tc := range malformedResponses(f) {
		f.Add(tc.resp)
	}
	f.Add(respFrame(f, imgproto.CodecNone, 1, pagePattern(0), nil))
	f.Add(respFrame(f, imgproto.CodecFlate, 2, pagePattern(mem.PageSize), nil))
	f.Add(respFrame(f, imgproto.CodecFlate, 3, make([]byte, mem.PageSize), nil))
	f.Add(respFrame(f, imgproto.CodecNone, 4, nil, errors.New("backing store gone")))
	f.Add(runResponse(f, imgproto.CodecNone, 0))
	f.Add(runResponse(f, imgproto.CodecFlate, 1<<7|1<<12))
	f.Fuzz(func(t *testing.T, resp []byte) {
		var id uint32 // the request in flight: whichever the header names
		if len(resp) >= respIDOff+4 {
			id = binary.BigEndian.Uint32(resp[respIDOff:])
		}
		one, err := readOnePage(bytes.NewReader(resp), id)
		if err == nil && len(one.Page) != mem.PageSize && one.Remote == "" {
			t.Fatalf("accepted a response with a %d-byte page and no message", len(one.Page))
		}
		if err == nil && one.Page != nil && one.Remote != "" {
			t.Fatal("accepted a response as both a page and an error")
		}

		req := runRequest
		req.ID = id
		r := bytes.NewReader(resp)
		seen := map[uint64]bool{}
		landed, _, err := readPageResponse(r, req, new([mem.PageSize]byte), func(addr uint64, _ *[mem.PageSize]byte) {
			if addr == req.Addr || runBase(addr) != runBase(req.Addr) || req.Want&runBit(addr) == 0 || seen[addr] {
				t.Fatalf("landed page 0x%x: not wanted, or twice", addr)
			}
			seen[addr] = true
		})
		if landed != len(seen) {
			t.Fatalf("reported %d pages landed, landed %d", landed, len(seen))
		}
		read := len(resp) - r.Len()
		if read > pageRespHdrLen+runPages*mem.PageSize {
			t.Fatalf("read %d bytes of one response: more than a run of pages", read)
		}
		if len(resp) >= pageRespHdrLen {
			raw := binary.BigEndian.Uint32(resp[respRawOff:])
			wire := binary.BigEndian.Uint32(resp[respWireOff:])
			if raw > runPages*mem.PageSize || wire > runPages*mem.PageSize {
				if err == nil {
					t.Fatalf("accepted a response of %d raw, %d wire bytes", raw, wire)
				}
				if read != pageRespHdrLen {
					t.Fatalf("read %d bytes of a response whose header asks for more than a run", read)
				}
			}
		}
	})
}

// TestPageServerRequiresHello: the hello is mandatory. A peer whose first
// frame is an ordinary page request gets the connection closed without a
// byte in reply, and the request is never served.
func TestPageServerRequiresHello(t *testing.T) {
	srv := ServePagesOn(listen(t), &mapSource{})
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
	srv := ServePagesOn(listen(t), &mapSource{})
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := pageHello(conn, imgproto.CodecNone, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	page := new([mem.PageSize]byte)
	if _, _, err := requestPage(conn, bufio.NewReader(conn), pageRequest{ID: 0, Addr: 3 * mem.PageSize}, page, nil, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	checkPage(t, 3*mem.PageSize, page[:])
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

	srv := ServePagesOn(listen(t), &mapSource{})
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
			resp, err := readOnePage(bytes.NewReader(tc.frame), 7)
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
