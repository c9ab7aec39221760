package criu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/dapper-sim/dapper/internal/imgproto"
)

// Page-server wire protocol: batched, optionally compressed response
// frames. See docs/transport.md for the full specification.
//
// Every connection opens with a hello: a 12-byte request frame whose
// reqID and address carry magic values plus the requested codec. The
// server answers with a HELLO frame (status 0x02) naming the codec it
// will use, and from then on every response travels inside a batch
// frame. A first frame that is not a hello closes the connection.
//
//	hello     := reqID = 0xD4B3FACE, addr = 0xD4B3C0DE00000000 | codec
//	hello-ack := reqID(u32 BE) 0x02 version(u8) codec(u8)
//	batch     := 0xB3(u8) codec(u8) count(u16 BE) rawLen(u32 BE) wireLen(u32 BE) payload[wireLen]
//
// A batch payload decodes (per its codec byte) to exactly count
// concatenated response frames (pageproto.go). Any header violation —
// bad magic, an unknown codec byte, zero count, wireLen > rawLen, bounds
// exceeded, or a payload that does not parse to exactly count frames —
// desynchronizes the stream and the reader must drop the connection.
const (
	pageHelloID        = 0xD4B3FACE
	pageHelloAddrMagic = 0xD4B3C0DE00000000
	pageHelloAddrMask  = 0xFFFFFFFFFFFFFF00
	pageStatusHello    = 0x02
	pageProtoVersion   = 3

	pageBatchMagic  = 0xB3
	pageBatchHdrLen = 12
	// maxBatchRaw bounds a batch's decoded payload so a corrupt header
	// cannot trigger a huge allocation; generous next to what the server
	// ever batches (see pageBatchWriter.full).
	maxBatchRaw = 1 << 24
)

// errBatchDesync marks framing violations in batch mode (as opposed to
// clean connection teardown); the client counts these separately.
var errBatchDesync = errors.New("criu: page batch stream desynchronized")

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
	var buf [7]byte
	binary.BigEndian.PutUint32(buf[0:4], pageHelloID)
	buf[4] = pageStatusHello
	buf[5] = pageProtoVersion
	buf[6] = byte(codec)
	_, err := w.Write(buf[:])
	return err
}

// negotiatePageBatch performs the synchronous hello exchange on a fresh
// connection, before any pipelined traffic. Batch frames name their own
// codec, so the acknowledged one is only validated, not returned. The
// deadline covers the whole exchange and is cleared before returning.
func negotiatePageBatch(conn net.Conn, want imgproto.Codec, timeout time.Duration) (err error) {
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
	var ack [7]byte
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

// encodePageResponse builds an OK frame for batching.
func encodePageResponse(id uint32, page []byte) []byte {
	buf := make([]byte, 5+len(page))
	binary.BigEndian.PutUint32(buf[0:4], id)
	buf[4] = pageStatusOK
	copy(buf[5:], page)
	return buf
}

// encodePageError builds an ERR frame for batching.
func encodePageError(id uint32, fetchErr error) []byte {
	msg := fetchErr.Error()
	if len(msg) > maxPageErrMsg {
		msg = msg[:maxPageErrMsg]
	}
	buf := make([]byte, 7+len(msg))
	binary.BigEndian.PutUint32(buf[0:4], id)
	buf[4] = pageStatusErr
	binary.BigEndian.PutUint16(buf[5:7], uint16(len(msg)))
	copy(buf[7:], msg)
	return buf
}

// writePageBatch compresses the count concatenated response frames held
// in frame after pageBatchHdrLen reserved bytes and writes header and
// payload as one batch frame in a single write — one syscall, and one
// roll of a lossy link's dice, per batch. Compress never expands, so the
// encoded payload is laid over the raw frames in place: frame is consumed.
// It returns the raw and on-wire payload sizes for telemetry.
func writePageBatch(w io.Writer, codec imgproto.Codec, count int, frame []byte) (rawN, wireN int, err error) {
	raw := frame[pageBatchHdrLen:]
	payload, used, err := codec.Compress(raw)
	if err != nil {
		return 0, 0, err
	}
	frame[0] = pageBatchMagic
	frame[1] = byte(used)
	binary.BigEndian.PutUint16(frame[2:4], uint16(count))
	binary.BigEndian.PutUint32(frame[4:8], uint32(len(raw)))
	binary.BigEndian.PutUint32(frame[8:12], uint32(len(payload)))
	if used != imgproto.CodecNone { // CodecNone's payload is raw itself
		copy(raw, payload)
	}
	if _, err := w.Write(frame[:pageBatchHdrLen+len(payload)]); err != nil {
		return 0, 0, err
	}
	return len(raw), pageBatchHdrLen + len(payload), nil
}

// readPageBatch reads and validates one batch frame, returning its
// decoded response frames. Framing violations wrap errBatchDesync so the
// caller can distinguish them from plain connection teardown.
func readPageBatch(r io.Reader) ([]pageResponse, error) {
	var hdr [pageBatchHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	codec := imgproto.Codec(hdr[1])
	count := int(binary.BigEndian.Uint16(hdr[2:4]))
	rawLen := int(binary.BigEndian.Uint32(hdr[4:8]))
	wireLen := int(binary.BigEndian.Uint32(hdr[8:12]))
	switch {
	case hdr[0] != pageBatchMagic:
		return nil, fmt.Errorf("%w: bad magic 0x%02x", errBatchDesync, hdr[0])
	case !codec.Valid():
		return nil, fmt.Errorf("%w: bad codec byte 0x%02x", errBatchDesync, hdr[1])
	case count == 0:
		return nil, fmt.Errorf("%w: empty batch", errBatchDesync)
	case rawLen > maxBatchRaw:
		return nil, fmt.Errorf("%w: batch of %d raw bytes exceeds limit", errBatchDesync, rawLen)
	case wireLen > rawLen:
		// Compress never expands (it falls back to CodecNone), so a wire
		// payload larger than its raw size proves corruption.
		return nil, fmt.Errorf("%w: wire payload %d exceeds raw size %d", errBatchDesync, wireLen, rawLen)
	case rawLen < count*5:
		return nil, fmt.Errorf("%w: %d raw bytes cannot hold %d frames", errBatchDesync, rawLen, count)
	}
	payload := make([]byte, wireLen)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	raw, err := codec.Decompress(payload, rawLen)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBatchDesync, err)
	}
	br := bytes.NewReader(raw)
	out := make([]pageResponse, 0, count)
	for i := 0; i < count; i++ {
		resp, err := readPageResponse(br)
		if err != nil {
			return nil, fmt.Errorf("%w: frame %d of %d: %v", errBatchDesync, i, count, err)
		}
		out = append(out, resp)
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after %d frames", errBatchDesync, br.Len(), count)
	}
	return out, nil
}
