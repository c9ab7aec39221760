package criu

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
)

// batchOf builds the raw payload (concatenated v2 response frames) for a
// batch and returns it with the frame count.
func batchOf(frames ...[]byte) ([]byte, int) {
	var raw []byte
	for _, f := range frames {
		raw = append(raw, f...)
	}
	return raw, len(frames)
}

// writeBatch is writePageBatch over a copy of raw laid behind the header
// room the server's batch writer reserves.
func writeBatch(w io.Writer, codec imgproto.Codec, count int, raw []byte) (int, int, error) {
	return writePageBatch(w, codec, count, append(make([]byte, pageBatchHdrLen), raw...))
}

func TestPageBatchRoundTrip(t *testing.T) {
	for _, codec := range []imgproto.Codec{imgproto.CodecNone, imgproto.CodecFlate} {
		t.Run(codec.String(), func(t *testing.T) {
			raw, count := batchOf(
				encodePageResponse(1, pagePattern(0)),
				encodePageResponse(2, pagePattern(mem.PageSize)),
				encodePageError(3, errors.New("no such page")),
				encodePageResponse(4, pagePattern(7*mem.PageSize)),
			)
			var buf bytes.Buffer
			rawN, wireN, err := writeBatch(&buf, codec, count, raw)
			if err != nil {
				t.Fatal(err)
			}
			if rawN != len(raw) {
				t.Errorf("rawN = %d, want %d", rawN, len(raw))
			}
			if wireN != buf.Len() {
				t.Errorf("wireN = %d, but %d bytes were written", wireN, buf.Len())
			}
			// Compress never expands: the batch frame is at most header +
			// raw payload, whatever codec was asked for.
			if wireN > pageBatchHdrLen+len(raw) {
				t.Errorf("wire frame %d bytes exceeds raw %d + header", wireN, len(raw))
			}
			resps, err := readPageBatch(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if len(resps) != count {
				t.Fatalf("decoded %d frames, want %d", len(resps), count)
			}
			checkPage(t, 0, resps[0].Page)
			checkPage(t, mem.PageSize, resps[1].Page)
			if resps[2].Remote != "no such page" {
				t.Errorf("error frame message %q, want %q", resps[2].Remote, "no such page")
			}
			checkPage(t, 7*mem.PageSize, resps[3].Page)
			for i, want := range []uint32{1, 2, 3, 4} {
				if resps[i].ID != want {
					t.Errorf("frame %d ID = %d, want %d", i, resps[i].ID, want)
				}
			}
		})
	}
}

// TestPageBatchFlateShrinks pins that the flate codec actually compresses
// a compressible batch — zero pages here, like the untouched tail of a
// guest heap.
func TestPageBatchFlateShrinks(t *testing.T) {
	raw, count := batchOf(
		encodePageResponse(1, make([]byte, mem.PageSize)),
		encodePageResponse(2, make([]byte, mem.PageSize)),
	)
	var buf bytes.Buffer
	rawN, wireN, err := writeBatch(&buf, imgproto.CodecFlate, count, raw)
	if err != nil {
		t.Fatal(err)
	}
	if wireN >= rawN {
		t.Errorf("flate batch of zero pages did not shrink: raw %d, wire %d", rawN, wireN)
	}
}

// TestReadPageBatchDesync feeds readPageBatch every class of framing
// violation; each must be flagged as errBatchDesync, while a merely
// truncated stream (a clean teardown mid-frame) must NOT be.
func TestReadPageBatchDesync(t *testing.T) {
	goodBatch := func() []byte {
		raw, count := batchOf(encodePageResponse(9, pagePattern(mem.PageSize)))
		var buf bytes.Buffer
		if _, _, err := writeBatch(&buf, imgproto.CodecNone, count, raw); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name   string
		frame  func() []byte
		desync bool
	}{
		{"bad magic", func() []byte {
			b := goodBatch()
			b[0] = 0x5A
			return b
		}, true},
		{"bad codec byte", func() []byte {
			b := goodBatch()
			b[1] = 0x7F
			return b
		}, true},
		{"zero count", func() []byte {
			b := goodBatch()
			b[2], b[3] = 0, 0
			return b
		}, true},
		{"raw size over limit", func() []byte {
			b := goodBatch()
			putU32(b[4:8], maxBatchRaw+1)
			return b
		}, true},
		{"wire exceeds raw", func() []byte {
			b := goodBatch()
			putU32(b[8:12], uint32(len(b)-pageBatchHdrLen+1))
			return append(b, 0x00) // keep the payload read satisfiable
		}, true},
		{"count too large for raw", func() []byte {
			b := goodBatch()
			b[2], b[3] = 0xFF, 0xFF
			return b
		}, true},
		{"short frame count", func() []byte {
			// Header claims two frames, payload holds one.
			raw, _ := batchOf(encodePageResponse(9, pagePattern(0)))
			var buf bytes.Buffer
			if _, _, err := writeBatch(&buf, imgproto.CodecNone, 2, raw); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}, true},
		{"trailing bytes", func() []byte {
			raw, _ := batchOf(encodePageResponse(9, pagePattern(0)))
			raw = append(raw, 0xAA, 0xBB)
			var buf bytes.Buffer
			if _, _, err := writeBatch(&buf, imgproto.CodecNone, 1, raw); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}, true},
		{"garbled flate payload", func() []byte {
			b := goodBatch()
			b[1] = byte(imgproto.CodecFlate) // none-payload labeled flate
			return b
		}, true},
		{"truncated payload", func() []byte {
			b := goodBatch()
			return b[:len(b)-10]
		}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := readPageBatch(bytes.NewReader(tc.frame()))
			if err == nil {
				t.Fatal("corrupt batch frame decoded without error")
			}
			if got := errors.Is(err, errBatchDesync); got != tc.desync {
				t.Errorf("errors.Is(err, errBatchDesync) = %v, want %v (err: %v)", got, tc.desync, err)
			}
		})
	}
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}

// TestPageClientBatchedFetch runs the full negotiated v3 path end to end:
// concurrent pipelined fetches over batched, compressed frames, with the
// same content checks as the v2 test plus the batch telemetry on both
// sides — and an error frame that must survive batching intact.
func TestPageClientBatchedFetch(t *testing.T) {
	// Outside the 64-page sweep below so only the explicit fetch hits it.
	bad := uint64(1000) * mem.PageSize
	src := &mapSource{failAddr: map[uint64]error{bad: errors.New("backing store gone")}}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	srv := ServePagesObs(ln, src, reg)
	defer srv.Close()
	c, err := DialPageServerOpts(srv.Addr(), PageClientOpts{
		Conns: 2, Codec: imgproto.CodecFlate,
		MaxRetries: 1, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			addr := uint64(i) * mem.PageSize
			page, err := c.FetchPage(addr)
			if err != nil {
				errs <- fmt.Errorf("page 0x%x: %w", addr, err)
				return
			}
			want := pagePattern(addr)
			for j := range want {
				if page[j] != want[j] {
					errs <- fmt.Errorf("page 0x%x corrupt at %d", addr, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	// An error frame inside a batch must still surface as RemoteFetchError
	// without desynchronizing the stream.
	if _, err := c.FetchPage(bad); err == nil {
		t.Fatal("fetch of failing page succeeded")
	} else {
		var remote *RemoteFetchError
		if !errors.As(err, &remote) {
			t.Fatalf("error %v is not a RemoteFetchError", err)
		}
	}
	page, err := c.FetchPage(3 * mem.PageSize)
	if err != nil {
		t.Fatalf("fetch after batched error frame: %v", err)
	}
	checkPage(t, 3*mem.PageSize, page)

	st := c.Stats()
	if st.Batches == 0 {
		t.Error("no batch frames received despite negotiated codec")
	}
	if st.BatchDesyncs != 0 {
		t.Errorf("BatchDesyncs = %d, want 0", st.BatchDesyncs)
	}
	if reg.Counter("wire.batches").Value() == 0 {
		t.Error("server recorded no wire.batches")
	}
	raw, wire := reg.Counter("wire.bytes_raw").Value(), reg.Counter("wire.bytes_wire").Value()
	if raw == 0 || wire == 0 {
		t.Errorf("wire byte telemetry missing: raw %d, wire %d", raw, wire)
	}
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
	if err := conn.SetReadDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	n, rerr := conn.Read(b[:])
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if n != 0 || !errors.Is(rerr, io.EOF) {
		t.Fatalf("read after a non-hello first frame: n=%d err=%v, want a clean close", n, rerr)
	}
	if got := srv.Stats().Requests; got != 0 {
		t.Errorf("server served %d requests on a connection that never said hello", got)
	}
}

// TestPageBatchDesyncRecovery (satellite: batch-frame desync) serves a
// corrupt batch frame — bad codec byte — on the first connection. The
// client must drop that connection, count the desync, redial, and complete
// the fetch on the replacement.
func TestPageBatchDesyncRecovery(t *testing.T) {
	// wg.Wait must run after ln.Close (LIFO defers): the accept goroutine
	// only exits once the listener dies.
	var wg sync.WaitGroup
	defer wg.Wait()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// Test-server teardown; accept-loop exit is the observable effect.
		_ = ln.Close()
	}()
	var mu sync.Mutex
	connNo := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			connNo++
			corrupt := connNo == 1
			mu.Unlock()
			wg.Add(1)
			go func(c net.Conn, corrupt bool) {
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
					raw, count := batchOf(encodePageResponse(req.ID, pagePattern(req.Addr)))
					var buf bytes.Buffer
					if _, _, err := writeBatch(&buf, imgproto.CodecNone, count, raw); err != nil {
						return
					}
					frame := buf.Bytes()
					if corrupt {
						frame[1] = 0x7F // codec byte no decoder exists for
					}
					if _, err := c.Write(frame); err != nil {
						return
					}
				}
			}(conn, corrupt)
		}
	}()

	c, err := DialPageServerOpts(ln.Addr().String(), PageClientOpts{
		Conns: 1, Codec: imgproto.CodecFlate,
		MaxRetries: 4, RetryBackoff: time.Millisecond, FetchTimeout: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	addr := uint64(5) * mem.PageSize
	page, err := c.FetchPage(addr)
	if err != nil {
		t.Fatalf("fetch never recovered from batch desync: %v", err)
	}
	checkPage(t, addr, page)
	st := c.Stats()
	if st.BatchDesyncs == 0 {
		t.Error("corrupt batch frame was not counted as a desync")
	}
	if st.Reconnects == 0 {
		t.Error("client recovered without redialing — desync conn was reused")
	}
	if st.Batches == 0 {
		t.Error("replacement connection never delivered a well-formed batch")
	}
}

// TestPageCodecDecodableNotRequestable draws, on the page protocol's
// three codec bytes, the line imgproto draws between a codec one may ask
// for and a form a payload may arrive in. The word-plane form is what
// CodecFlate makes of a big enough integer-shaped payload by itself:
// a batch header naming it decodes, a hello asking for it is answered
// like one asking for a codec that does not exist — with CodecNone — and
// an acknowledgment promising it is malformed.
func TestPageCodecDecodableNotRequestable(t *testing.T) {
	// Batch frames, one per codec byte. Over the form trial's floor, 300
	// pages of small integers go out as word planes.
	var frames [][]byte
	for i := 0; i < 300; i++ {
		frames = append(frames, encodePageResponse(uint32(i), pagePattern(uint64(i)*mem.PageSize)))
	}
	big, bigCount := batchOf(frames...)
	small, smallCount := batchOf(frames[:2]...)
	batch := func(codec imgproto.Codec, count int, raw []byte) []byte {
		var buf bytes.Buffer
		if _, _, err := writeBatch(&buf, codec, count, raw); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	unknown := batch(imgproto.CodecNone, smallCount, small)
	unknown[1] = 0x7F

	srv, err := ServePages("127.0.0.1:0", &mapSource{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	for _, tc := range []struct {
		codec     imgproto.Codec
		batch     []byte
		count     int            // frames the batch decodes to; 0: desync
		helloAck  imgproto.Codec // what a server answers a hello asking for codec
		ackAccept bool           // whether a client accepts an ack naming codec
	}{
		{imgproto.CodecNone, batch(imgproto.CodecNone, smallCount, small), smallCount, imgproto.CodecNone, true},
		{imgproto.CodecFlate, batch(imgproto.CodecFlate, smallCount, small), smallCount, imgproto.CodecFlate, true},
		{imgproto.CodecFlateWords, batch(imgproto.CodecFlate, bigCount, big), bigCount, imgproto.CodecNone, false},
		{0x7F, unknown, 0, imgproto.CodecNone, false},
	} {
		t.Run(tc.codec.String(), func(t *testing.T) {
			if got := imgproto.Codec(tc.batch[1]); got != tc.codec {
				t.Fatalf("batch went out as %s, want %s", got, tc.codec)
			}
			resps, err := readPageBatch(bytes.NewReader(tc.batch))
			if tc.count == 0 {
				if !errors.Is(err, errBatchDesync) {
					t.Errorf("batch: error %v, want a desync", err)
				}
			} else if err != nil || len(resps) != tc.count {
				t.Errorf("batch: %d frames, err %v; want %d", len(resps), err, tc.count)
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
			var ack [7]byte
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
			go func() {
				if _, err := readPageRequest(server); err == nil {
					_ = writeHelloAck(server, tc.codec) // the client's verdict is the test
				}
			}()
			err = negotiatePageBatch(client, imgproto.CodecFlate, 2*time.Second)
			if (err == nil) != tc.ackAccept {
				t.Errorf("ack naming %s: negotiate returned %v; accepted should be %v", tc.codec, err, tc.ackAccept)
			}
		})
	}
}
