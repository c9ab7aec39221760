package criu

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/dapper-sim/dapper/internal/imgproto"
	"github.com/dapper-sim/dapper/internal/mem"
)

// The page-server wire protocol, all of it. See docs/transport.md for the
// full specification.
//
// A connection carries one request at a time: the restored process faults
// a page, the client writes a request and reads the one response frame
// that answers it. Every connection opens with a hello, a request-shaped
// frame whose reqID and address carry magic values plus the codec the
// client asks for; the server acknowledges with the codec it will use. A
// first frame that is not a hello, or a second hello, closes the
// connection.
//
//	request   := reqID(u32 BE) pageAddr(u64 BE)
//	hello     := request with reqID = 0xD4B3FACE, pageAddr = 0xD4B3C0DE00000000 | codec
//	hello-ack := reqID(u32 BE) 0x02 version(u8) codec(u8)
//	response  := 0xB3 codec(u8) status(u8) reqID(u32 BE) rawLen(u32 BE) wireLen(u32 BE) payload[wireLen]
//	  status 0x00 (OK):  rawLen = PageSize; payload decodes, per codec, to the page
//	  status 0x01 (ERR): codec = none, rawLen = wireLen <= 1 KiB; payload is the message
//
// An ERR frame reports a server-side ReadPage failure for that request
// only; the connection stays synchronized and usable. Any header field
// out of these bounds, a payload that does not decode to exactly rawLen
// bytes, a reqID other than the one in flight, or a byte arriving after
// the response while no request is in flight desynchronizes the stream
// (errPageDesync) and the reader must drop the connection.
const (
	pageReqLen = 12

	pageHelloID        = 0xD4B3FACE
	pageHelloAddrMagic = 0xD4B3C0DE00000000
	pageHelloAddrMask  = 0xFFFFFFFFFFFFFF00
	pageHelloAckLen    = 7
	pageProtoVersion   = 4

	pageRespMagic   = 0xB3
	pageRespHdrLen  = 15
	pageStatusOK    = 0x00
	pageStatusErr   = 0x01
	pageStatusHello = 0x02
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
}

// pageResponse is one server->client frame, decoded.
type pageResponse struct {
	ID   uint32
	Page []byte // the reader's dst; nil when the frame is an error frame
	// Remote holds the server-reported error message for ERR frames.
	Remote string
}

func writePageRequest(w io.Writer, req pageRequest) error {
	var buf [pageReqLen]byte
	binary.BigEndian.PutUint32(buf[0:4], req.ID)
	binary.BigEndian.PutUint64(buf[4:12], req.Addr)
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

// encodePageResponse turns buf — pageRespHdrLen bytes of room for the
// header, then the page answering request id — into that request's
// response frame, in place, and returns the frame: an ERR frame carrying
// fetchErr's message if it is set, else an OK frame carrying the page
// encoded with codec. A page that goes out as CodecNone is not moved;
// a compressed one is copied over the page it was made from, which
// Compress never expands past. Header and payload share one buffer so
// the frame leaves in one write — one syscall, and one roll of a lossy
// link's dice, per response. rawN is the payload's size before the
// codec, for telemetry.
func encodePageResponse(buf []byte, codec imgproto.Codec, id uint32, fetchErr error) (frame []byte, rawN int, err error) {
	status, raw := byte(pageStatusOK), buf[pageRespHdrLen:pageRespHdrLen+mem.PageSize]
	if fetchErr != nil {
		raw = raw[:copy(raw[:maxPageErrMsg], fetchErr.Error())]
		status, codec = pageStatusErr, imgproto.CodecNone
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
	return buf[:pageRespHdrLen+len(payload)], len(raw), nil
}

// readPageFrame reads and validates one response frame, and nothing past
// it, leaving an OK frame's page in dst. Every length is checked against
// the protocol's bounds before a payload byte is read, so a header can
// ask for a page at most. Framing violations wrap errPageDesync so the
// caller can distinguish them from plain connection teardown. An
// uncompressed page is read straight into dst; a compressed one is
// inflated and copied in. On error dst's contents are undefined.
func readPageFrame(r io.Reader, dst *[mem.PageSize]byte) (pageResponse, error) {
	var hdr [pageRespHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return pageResponse{}, err
	}
	codec, status := imgproto.Codec(hdr[1]), hdr[2]
	resp := pageResponse{ID: binary.BigEndian.Uint32(hdr[3:7])}
	rawLen := binary.BigEndian.Uint32(hdr[7:11])
	wireLen := binary.BigEndian.Uint32(hdr[11:15])
	switch {
	case hdr[0] != pageRespMagic:
		return pageResponse{}, fmt.Errorf("%w: bad magic 0x%02x", errPageDesync, hdr[0])
	case !codec.Valid():
		return pageResponse{}, fmt.Errorf("%w: bad codec byte 0x%02x", errPageDesync, hdr[1])
	case status != pageStatusOK && status != pageStatusErr:
		return pageResponse{}, fmt.Errorf("%w: bad status byte 0x%02x", errPageDesync, status)
	case status == pageStatusOK && rawLen != mem.PageSize:
		return pageResponse{}, fmt.Errorf("%w: page frame of %d raw bytes", errPageDesync, rawLen)
	case status == pageStatusErr && rawLen > maxPageErrMsg:
		return pageResponse{}, fmt.Errorf("%w: error frame of %d bytes exceeds limit", errPageDesync, rawLen)
	case status == pageStatusErr && codec != imgproto.CodecNone:
		return pageResponse{}, fmt.Errorf("%w: error frame encoded as %s", errPageDesync, codec)
	case wireLen > rawLen:
		// Compress never expands (it falls back to CodecNone), so a wire
		// payload larger than its raw size proves corruption.
		return pageResponse{}, fmt.Errorf("%w: wire payload %d exceeds raw size %d", errPageDesync, wireLen, rawLen)
	}
	payload := dst[:wireLen] // an uncompressed page is read in place
	if status != pageStatusOK || codec != imgproto.CodecNone {
		payload = make([]byte, wireLen)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		return pageResponse{}, err
	}
	raw, err := codec.Decompress(payload, int(rawLen))
	if err != nil {
		return pageResponse{}, fmt.Errorf("%w: %v", errPageDesync, err)
	}
	if status == pageStatusOK {
		if codec != imgproto.CodecNone {
			copy(dst[:], raw)
		}
		resp.Page = dst[:]
		return resp, nil
	}
	resp.Remote = string(raw)
	if resp.Remote == "" {
		resp.Remote = "unspecified server error"
	}
	return resp, nil
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
