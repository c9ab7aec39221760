package criu

import (
	"bytes"
	"cmp"
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
// a page, the client writes a request and reads the one frame that
// answers it, carrying the page and the pages of its aligned run that the
// request wants and the server could read. Every connection opens with a
// hello, a request-shaped frame whose reqID and address carry magic values
// plus the codec the client asks for; the server acknowledges with the
// codec it will use. A first frame that is not a hello, a second hello, or
// a request wanting its own page closes the connection.
//
//	request   := reqID(u32 BE) pageAddr(u64 BE) want(u16 BE: bit i = page i of pageAddr's run)
//	hello     := request with reqID = 0xD4B3FACE, pageAddr = 0xD4B3C0DE00000000 | codec
//	hello-ack := reqID(u32 BE) 0x02 version(u8) codec(u8)
//	response  := 0xB3 codec(u8) status(u8) reqID(u32 BE) sent(u16 BE) rawLen(u32 BE) wireLen(u32 BE)
//	             payload[wireLen]
//	  status 0x00 (OK):  sent names only pages of want; rawLen = (1 + popcount(sent)) * PageSize;
//	                     payload decodes, per codec, to pageAddr's page, then sent's pages in address order
//	  status 0x01 (ERR): sent = 0, codec = none, rawLen = wireLen <= 1 KiB; payload is the message
//
// A failed read of the requested page is an ERR frame, one of a wanted
// page leaves it out of sent; the connection stays usable. Any header
// field out of these bounds, a payload that does not decode to exactly
// rawLen bytes, or a byte after the response desynchronizes the stream
// (errPageDesync) and the reader must drop the connection.
const (
	pageReqLen = 14
	runPages   = 16 // pages of an aligned run (64 KiB)

	pageHelloID        = 0xD4B3FACE
	pageHelloAddrMagic = 0xD4B3C0DE00000000
	pageHelloAddrMask  = 0xFFFFFFFFFFFFFF00
	pageHelloAckLen    = 7
	pageProtoVersion   = 6

	pageRespMagic   = 0xB3
	pageRespHdrLen  = 17
	pageStatusOK    = 0x00
	pageStatusErr   = 0x01
	pageStatusHello = 0x02
	// maxPageErrMsg bounds error-frame messages: with it, no header can
	// ask the reader for more than a run of pages.
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

// encodePageResponse turns buf — header room, then the n payload bytes
// before the codec: the pages of an OK frame, or an ERR frame's message —
// into the response to request id in place. A compressed payload is
// copied over the one it was made from, which Compress never expands past.
func encodePageResponse(buf []byte, codec imgproto.Codec, status byte, id uint32, sent uint16, n int) ([]byte, error) {
	raw := buf[pageRespHdrLen : pageRespHdrLen+n]
	payload, used, err := codec.Compress(raw)
	if err != nil {
		return nil, err
	}
	if used != imgproto.CodecNone { // a CodecNone payload is raw itself
		copy(raw, payload)
	}
	buf[0], buf[1], buf[2] = pageRespMagic, byte(used), status
	binary.BigEndian.PutUint32(buf[3:7], id)
	binary.BigEndian.PutUint16(buf[7:9], sent)
	binary.BigEndian.PutUint32(buf[9:13], uint32(n))
	binary.BigEndian.PutUint32(buf[13:17], uint32(len(payload)))
	return buf[:pageRespHdrLen+len(payload)], nil
}

// readPageResponse reads the response to req through r, and nothing past
// it: the requested page into dst, then the pages sent names, in address
// order, each into a fresh frame handed to land. The whole header is
// checked against the protocol's bounds and against req before a payload
// byte is read, so no header can ask for more than a run of pages. It
// returns the pages landed, which stay landed on error, or the server's
// message if req.Addr could not be read. Framing violations wrap
// errPageDesync, which a plain teardown mid-response does not. On error
// dst's contents are undefined.
func readPageResponse(r io.Reader, req pageRequest, dst *[mem.PageSize]byte, land func(addr uint64, frame *[mem.PageSize]byte)) (landed int, remote string, err error) {
	var hdr [pageRespHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, "", err
	}
	codec, status, id := imgproto.Codec(hdr[1]), hdr[2], binary.BigEndian.Uint32(hdr[3:7])
	sent, rawLen, wireLen := binary.BigEndian.Uint16(hdr[7:9]), binary.BigEndian.Uint32(hdr[9:13]), binary.BigEndian.Uint32(hdr[13:17])
	switch {
	case hdr[0] != pageRespMagic || !codec.Valid() || status != pageStatusOK && status != pageStatusErr:
		return 0, "", fmt.Errorf("%w: bad magic, codec or status (% x)", errPageDesync, hdr[:3])
	case id != req.ID:
		return 0, "", fmt.Errorf("%w: response to request %d while %d is in flight", errPageDesync, id, req.ID)
	case sent&^req.Want != 0: // want never names req.Addr itself
		return 0, "", fmt.Errorf("%w: sent pages 0x%04x where 0x%04x were wanted", errPageDesync, sent, req.Want)
	case status == pageStatusOK && rawLen != uint32(1+bits.OnesCount16(sent))*mem.PageSize:
		return 0, "", fmt.Errorf("%w: %d raw bytes for the page and sent pages 0x%04x", errPageDesync, rawLen, sent)
	case status == pageStatusErr && (sent != 0 || codec != imgproto.CodecNone || rawLen > maxPageErrMsg):
		return 0, "", fmt.Errorf("%w: error frame of %d bytes, %s, sending 0x%04x", errPageDesync, rawLen, codec, sent)
	case wireLen > rawLen || codec == imgproto.CodecNone && wireLen != rawLen:
		// Compress never expands, so a larger wire payload proves corruption.
		return 0, "", fmt.Errorf("%w: %s payload of %d bytes for %d raw", errPageDesync, codec, wireLen, rawLen)
	}
	// An uncompressed payload is read in place; anything else is read
	// whole and decoded, and its pages are read from that.
	payload := r
	if codec != imgproto.CodecNone || status == pageStatusErr {
		wire := make([]byte, wireLen)
		if _, err := io.ReadFull(r, wire); err != nil {
			return 0, "", err
		}
		raw, err := codec.Decompress(wire, int(rawLen))
		switch {
		case err != nil:
			return 0, "", fmt.Errorf("%w: %v", errPageDesync, err)
		case status == pageStatusErr:
			return 0, cmp.Or(string(raw), "unspecified server error"), nil
		}
		payload = bytes.NewReader(raw)
	}
	if _, err := io.ReadFull(payload, dst[:]); err != nil {
		return 0, "", err
	}
	for ; sent != 0; sent &= sent - 1 {
		frame := new([mem.PageSize]byte)
		if _, err := io.ReadFull(payload, frame[:]); err != nil {
			return landed, "", err
		}
		land(runBase(req.Addr)+uint64(bits.TrailingZeros16(sent))*mem.PageSize, frame)
		landed++
	}
	return landed, "", nil
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
