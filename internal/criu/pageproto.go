package criu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"net"
	"time"

	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/mem"
)

// The page-server wire protocol, all of it. See docs/transport.md for the
// full specification.
//
// A connection carries one request at a time: the restored process faults
// a page, the client writes a request and reads the response that answers
// it, a frame for the page and one for each page of its aligned run that
// the request wants. Every connection opens with a hello, a request-shaped
// frame whose reqID and address carry magic values plus the codec the
// client asks for; the server acknowledges with the codec it will use. A
// first frame that is not a hello, a second hello, or a request wanting
// its own page closes the connection.
//
//	request   := reqID(u32 BE) pageAddr(u64 BE) want(u16 BE: bit i = page i of pageAddr's run)
//	hello     := request with reqID = 0xD4B3FACE, pageAddr = 0xD4B3C0DE00000000 | codec
//	hello-ack := reqID(u32 BE) 0x02 version(u8) codec(u8)
//	response  := pageAddr's frame, then one per wanted page in address order
//	frame     := 0xB3 codec(u8) status(u8) reqID(u32 BE) rawLen(u32 BE) wireLen(u32 BE)
//	             off(i8: pages from pageAddr) left(u8: frames after this one) payload[wireLen]
//	  status 0x00 (OK):       rawLen = PageSize; payload decodes, per codec, to the page
//	  status 0x01 (ERR):      off = 0, codec = none, rawLen = wireLen <= 1 KiB; payload is the message
//	  status 0x03 (NOT SENT): off != 0, codec = none, rawLen = wireLen = 0
//
// An ERR frame reports a server-side ReadPage failure of the requested
// page, a NOT SENT frame one of a wanted page, which faults on its own
// later; the connection stays synchronized and usable. Any header field
// out of these bounds, a frame other than the one due next, a payload
// that does not decode to exactly rawLen bytes, or a byte arriving after
// the response while no request is in flight desynchronizes the stream
// (errPageDesync) and the reader must drop the connection.
const (
	pageReqLen = 14
	runPages   = 16 // pages of an aligned run (64 KiB)

	pageHelloID        = 0xD4B3FACE
	pageHelloAddrMagic = 0xD4B3C0DE00000000
	pageHelloAddrMask  = 0xFFFFFFFFFFFFFF00
	pageHelloAckLen    = 7
	pageProtoVersion   = 5

	pageRespMagic     = 0xB3
	pageRespHdrLen    = 17
	pageStatusOK      = 0x00
	pageStatusErr     = 0x01
	pageStatusHello   = 0x02
	pageStatusNotSent = 0x03
	// maxPageErrMsg bounds error-frame messages: with it, no header can
	// ask the reader for more than a page.
	maxPageErrMsg = 1 << 10
)

// errPageDesync marks framing violations (as opposed to clean connection
// teardown); the client counts these separately.
var errPageDesync = errors.New("criu: page response stream desynchronized")

// pageRequest is one client->server frame.
type pageRequest struct {
	ID   uint32
	Addr uint64
	Want uint16 // bit i: the page at runBase(Addr) + i pages; never Addr's own
}

// runBase is the address of the run holding the page at addr.
func runBase(addr uint64) uint64 { return addr &^ (runPages*mem.PageSize - 1) }

// runBit is the page at addr's bit in a want bitmap of its run.
func runBit(addr uint64) uint16 { return 1 << (addr / mem.PageSize % runPages) }

func writePageRequest(w io.Writer, req pageRequest) error {
	var buf [pageReqLen]byte
	binary.BigEndian.PutUint32(buf[0:4], req.ID)
	binary.BigEndian.PutUint64(buf[4:12], req.Addr)
	binary.BigEndian.PutUint16(buf[12:14], req.Want)
	_, err := w.Write(buf[:])
	return err
}

func readPageRequest(r io.Reader) (pageRequest, error) {
	var buf [pageReqLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return pageRequest{}, err
	}
	return pageRequest{
		ID:   binary.BigEndian.Uint32(buf[0:4]),
		Addr: binary.BigEndian.Uint64(buf[4:12]),
		Want: binary.BigEndian.Uint16(buf[12:14]),
	}, nil
}

// helloRequest builds the client's negotiation frame for the requested
// codec.
func helloRequest(codec imgproto.Codec) pageRequest {
	return pageRequest{ID: pageHelloID, Addr: pageHelloAddrMagic | uint64(codec)}
}

// isHelloRequest detects the negotiation frame on the server side. Real
// request IDs count up from zero and real addresses are page-aligned, so
// the magic pair cannot occur in normal traffic.
func isHelloRequest(req pageRequest) bool {
	return req.ID == pageHelloID && req.Addr&pageHelloAddrMask == pageHelloAddrMagic
}

// writeHelloAck sends the server's acknowledgment carrying the codec
// the server will actually use.
func writeHelloAck(w io.Writer, codec imgproto.Codec) error {
	var buf [pageHelloAckLen]byte
	binary.BigEndian.PutUint32(buf[0:4], pageHelloID)
	buf[4] = pageStatusHello
	buf[5] = pageProtoVersion
	buf[6] = byte(codec)
	_, err := w.Write(buf[:])
	return err
}

// pageHello performs the hello exchange on a fresh connection. Response
// frames name their own codec, so the acknowledged one is only validated,
// not returned. The deadline covers the whole exchange and is cleared
// before returning.
func pageHello(conn net.Conn, want imgproto.Codec, timeout time.Duration) (err error) {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return fmt.Errorf("criu: page hello: %w", err)
	}
	defer func() {
		if cerr := conn.SetDeadline(time.Time{}); err == nil && cerr != nil {
			err = fmt.Errorf("criu: page hello: clear deadline: %w", cerr)
		}
	}()
	if err := writePageRequest(conn, helloRequest(want)); err != nil {
		return fmt.Errorf("criu: page hello: %w", err)
	}
	var ack [pageHelloAckLen]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return fmt.Errorf("criu: page hello: %w", err)
	}
	id := binary.BigEndian.Uint32(ack[0:4])
	codec := imgproto.Codec(ack[6])
	if id != pageHelloID || ack[4] != pageStatusHello || ack[5] != pageProtoVersion || !codec.Requestable() {
		return fmt.Errorf("criu: page hello: malformed ack (id 0x%x status 0x%02x version %d codec %s)", id, ack[4], ack[5], codec)
	}
	return nil
}

// encodePageFrame turns buf — header room, then the page off pages from
// the one request id asked for — into that page's frame in place, left
// frames before the response ends: an OK frame carrying the page encoded
// with codec (a compressed page is copied over the one it was made from,
// which Compress never expands past), or if fetchErr is set an ERR frame
// with its message for the requested page, a bare NOT SENT frame for
// another. rawN is the payload's size before the codec, for telemetry.
func encodePageFrame(buf []byte, codec imgproto.Codec, id uint32, off, left int, fetchErr error) (frame []byte, rawN int, err error) {
	status, raw := byte(pageStatusOK), buf[pageRespHdrLen:pageRespHdrLen+mem.PageSize]
	switch {
	case fetchErr != nil && off == 0:
		raw = raw[:copy(raw[:maxPageErrMsg], fetchErr.Error())]
		status, codec = pageStatusErr, imgproto.CodecNone
	case fetchErr != nil:
		raw = raw[:0]
		status, codec = pageStatusNotSent, imgproto.CodecNone
	}
	payload, used, err := codec.Compress(raw)
	if err != nil {
		return nil, 0, err
	}
	if used != imgproto.CodecNone { // a CodecNone payload is raw itself
		copy(raw, payload)
	}
	buf[0], buf[1], buf[2] = pageRespMagic, byte(used), status
	binary.BigEndian.PutUint32(buf[3:7], id)
	binary.BigEndian.PutUint32(buf[7:11], uint32(len(raw)))
	binary.BigEndian.PutUint32(buf[11:15], uint32(len(payload)))
	buf[15], buf[16] = byte(int8(off)), byte(left)
	return buf[:pageRespHdrLen+len(payload)], len(raw), nil
}

// readPageFrame reads one frame of the response to req, and nothing past
// it: the frame due next, for the page at due with left frames after it.
// Its header is checked against the protocol's bounds and against what is
// due before a payload byte is read, so no header can ask for more than a
// page. It reads an OK frame's page into dst, or into a fresh frame if dst
// is nil, and returns it (nil for NOT SENT), or returns an ERR frame's
// message. Framing violations wrap errPageDesync, which a plain teardown
// mid-frame does not. On error the page's contents are undefined.
func readPageFrame(r io.Reader, req pageRequest, due uint64, left int, dst *[mem.PageSize]byte) (page *[mem.PageSize]byte, remote string, err error) {
	var hdr [pageRespHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, "", err
	}
	codec, status, id := imgproto.Codec(hdr[1]), hdr[2], binary.BigEndian.Uint32(hdr[3:7])
	rawLen := binary.BigEndian.Uint32(hdr[7:11])
	wireLen := binary.BigEndian.Uint32(hdr[11:15])
	addr := req.Addr + uint64(int64(int8(hdr[15])))*mem.PageSize
	switch {
	case hdr[0] != pageRespMagic:
		return nil, "", fmt.Errorf("%w: bad magic 0x%02x", errPageDesync, hdr[0])
	case !codec.Valid():
		return nil, "", fmt.Errorf("%w: bad codec byte 0x%02x", errPageDesync, hdr[1])
	case status != pageStatusOK && status != pageStatusErr && status != pageStatusNotSent:
		return nil, "", fmt.Errorf("%w: bad status byte 0x%02x", errPageDesync, status)
	case status == pageStatusOK && rawLen != mem.PageSize:
		return nil, "", fmt.Errorf("%w: page frame of %d raw bytes", errPageDesync, rawLen)
	case status == pageStatusErr && (rawLen > maxPageErrMsg || due != req.Addr):
		return nil, "", fmt.Errorf("%w: error frame of %d bytes for page 0x%x", errPageDesync, rawLen, due)
	case status == pageStatusNotSent && (rawLen != 0 || due == req.Addr):
		return nil, "", fmt.Errorf("%w: not-sent frame of %d bytes for page 0x%x", errPageDesync, rawLen, due)
	case status != pageStatusOK && codec != imgproto.CodecNone:
		return nil, "", fmt.Errorf("%w: error frame encoded as %s", errPageDesync, codec)
	case wireLen > rawLen:
		// Compress never expands (it falls back to CodecNone), so a wire
		// payload larger than its raw size proves corruption.
		return nil, "", fmt.Errorf("%w: wire payload %d exceeds raw size %d", errPageDesync, wireLen, rawLen)
	case id != req.ID:
		return nil, "", fmt.Errorf("%w: response to request %d while %d is in flight", errPageDesync, id, req.ID)
	case addr != due:
		return nil, "", fmt.Errorf("%w: frame for page 0x%x where 0x%x is due", errPageDesync, addr, due)
	case int(hdr[16]) != left:
		return nil, "", fmt.Errorf("%w: frame says %d frames follow, %d are due", errPageDesync, hdr[16], left)
	case status == pageStatusNotSent:
		return nil, "", nil
	}
	if dst == nil {
		dst = new([mem.PageSize]byte)
	}
	payload := dst[:wireLen] // an uncompressed page is read in place
	if status != pageStatusOK || codec != imgproto.CodecNone {
		payload = make([]byte, wireLen)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, "", err
	}
	raw, err := codec.Decompress(payload, int(rawLen))
	switch {
	case err != nil:
		return nil, "", fmt.Errorf("%w: %v", errPageDesync, err)
	case status == pageStatusErr && len(raw) == 0:
		return nil, "unspecified server error", nil
	case status == pageStatusErr:
		return nil, string(raw), nil
	case codec != imgproto.CodecNone:
		copy(dst[:], raw)
	}
	return dst, "", nil
}

// readPageRun reads the response to req through r, and nothing past it:
// req.Addr's frame into dst, then one frame per wanted page in address
// order, each page that came into a fresh frame handed to land. A
// response is at most runPages frames of a page. It returns the pages
// landed, which stay landed on error, and the server's message if
// req.Addr could not be read.
func readPageRun(r io.Reader, req pageRequest, dst *[mem.PageSize]byte, land func(addr uint64, frame *[mem.PageSize]byte)) (landed int, remote string, err error) {
	want := req.Want &^ runBit(req.Addr)
	if _, remote, err = readPageFrame(r, req, req.Addr, bits.OnesCount16(want), dst); err != nil {
		return 0, "", err
	}
	for ; want != 0; want &= want - 1 {
		due := runBase(req.Addr) + uint64(bits.TrailingZeros16(want))*mem.PageSize
		frame, _, err := readPageFrame(r, req, due, bits.OnesCount16(want)-1, nil)
		if err != nil {
			return landed, "", err
		}
		if frame != nil {
			land(due, frame)
			landed++
		}
	}
	return landed, remote, nil
}

// RemoteFetchError is a server-reported page-fetch failure, relayed to the
// client in an error frame. The connection that carried it remains
// synchronized and usable.
type RemoteFetchError struct {
	Addr uint64
	Msg  string
}

func (e *RemoteFetchError) Error() string {
	return fmt.Sprintf("criu: page server failed to serve page 0x%x: %s", e.Addr, e.Msg)
}
