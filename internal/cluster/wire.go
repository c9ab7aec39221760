package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/image"
	"github.com/dapper-sim/dapper/internal/obs"
)

// Image transfer wire format: a self-describing segmented stream with
// optional per-segment compression, sharing the codec layer (and its
// telemetry names) with the page protocol's batch frames. See
// docs/transport.md.
//
//	stream  := "DIB3" codec(u8) pad(3 zero bytes) rawTotal(u64 BE) segment...
//	segment := rawLen(u32 BE) wireLen(u32 BE) codec(u8) payload[wireLen]
//
// Segments concatenate (after decoding) to exactly rawTotal bytes of
// ImageDir.Marshal output. Each segment carries its own codec byte
// because CodecFlate chooses per segment among plain DEFLATE, DEFLATE
// over word planes and — when compression does not shrink it — the raw
// bytes; the header codec records what was requested.
const (
	imageMagic     = "DIB3"
	imageHdrLen    = 16
	imageSegHdrLen = 9
	// maxImageBytes caps a whole transfer.
	maxImageBytes = 1 << 30
	// maxImageSegment caps one segment's raw payload; imageSegment, what
	// the writer cuts, stays well under it.
	maxImageSegment = 8 << 20
	imageSegment    = 4 << 20
	// recvChunk bounds how much readBounded grows per read, so a corrupt
	// length header allocates memory only as fast as bytes actually
	// arrive instead of committing the claimed size up front.
	recvChunk = 1 << 20
)

// errNotImageStream refuses a transfer that does not open with the stream
// magic — a peer speaking some other framing, or line noise.
var errNotImageStream = errors.New("cluster: image stream: missing DIB3 magic")

// eachSegment cuts blob into segments of at most segBytes and hands each
// to emit together with its encoded payload and the codec that actually
// encoded it (an empty blob still yields one empty segment). For
// CodecNone the payload aliases blob. It is the one place a stream's
// segments, their wire size and the "wire.*" telemetry are decided, so a
// TCP send and an in-process transfer of the same blob report the same
// figures. It returns the stream's total wire size, header included, and
// refuses a blob over the transfer cap before emitting anything.
func eachSegment(blob []byte, codec criu.Codec, segBytes int, reg *obs.Registry, emit func(raw, payload []byte, used criu.Codec) error) (uint64, error) {
	if uint64(len(blob)) > maxImageBytes {
		return 0, fmt.Errorf("cluster: image of %d bytes exceeds limit", len(blob))
	}
	wire := uint64(imageHdrLen)
	for off := 0; ; {
		end := min(off+segBytes, len(blob))
		raw := blob[off:end]
		//lint:ignore wallclock codec_ns is host-side codec cost telemetry, never part of modeled migration time
		start := time.Now()
		payload, used, err := codec.Compress(raw)
		//lint:ignore wallclock codec_ns is host-side codec cost telemetry, never part of modeled migration time
		reg.Histogram("wire.codec_ns").Observe(time.Since(start))
		if err != nil {
			return 0, err
		}
		if err := emit(raw, payload, used); err != nil {
			return 0, err
		}
		wire += uint64(imageSegHdrLen + len(payload))
		reg.Counter("wire.batches").Inc()
		reg.Counter(criu.WireFormCounter(used)).Inc()
		reg.Counter("wire.bytes_raw").Add(uint64(len(raw)))
		reg.Counter("wire.bytes_wire").Add(uint64(imageSegHdrLen + len(payload)))
		if off = end; off == len(blob) {
			return wire, nil
		}
	}
}

// writeImageStream writes blob as a segmented stream, compressing each
// segment with codec, and returns the total bytes put on the wire. Wire
// telemetry ("wire.*") lands in reg; nil disables recording.
func writeImageStream(w io.Writer, blob []byte, codec criu.Codec, segBytes int, reg *obs.Registry) (uint64, error) {
	// The stream header rides in front of the first segment, so nothing
	// is written for a blob eachSegment refuses.
	hdr := make([]byte, imageHdrLen, imageHdrLen+imageSegHdrLen)
	copy(hdr, imageMagic)
	hdr[4] = byte(codec)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(len(blob)))
	return eachSegment(blob, codec, segBytes, reg, func(raw, payload []byte, used criu.Codec) error {
		var seg [imageSegHdrLen]byte
		binary.BigEndian.PutUint32(seg[0:4], uint32(len(raw)))
		binary.BigEndian.PutUint32(seg[4:8], uint32(len(payload)))
		seg[8] = byte(used)
		bufs := net.Buffers{append(hdr, seg[:]...), payload}
		hdr = hdr[:0]
		_, err := bufs.WriteTo(w)
		return err
	})
}

// transfer is the in-process hand-off of an image blob to the directory
// the destination restores from: the blob is cut, encoded and decoded
// segment by segment exactly as a TCP send would carry it — so the
// returned wire size is measured, not estimated — but by reference, with
// no stream in between: for CodecNone each segment reaches the splitter
// still aliasing blob, and it keeps every file that arrives in one chunk
// by reference, so the directory returned aliases blob (or the decoded
// segments) and the hand-off copies no image byte. The caller gives blob
// up: it is the destination's from here on.
func transfer(blob []byte, codec criu.Codec, reg *obs.Registry) (*criu.ImageDir, uint64, error) {
	sp := image.NewStreamSplitter(len(blob))
	wire, err := eachSegment(blob, codec, imageSegment, reg, func(raw, payload []byte, used criu.Codec) error {
		dec, err := used.Decompress(payload, len(raw))
		if err != nil {
			return err
		}
		_, err = sp.Write(dec)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	dir, err := sp.Close()
	if err != nil {
		return nil, 0, err
	}
	return dir, wire, nil
}

// readImageDirFrom is the one parser of the image stream: it reads a
// transfer and materializes the directory, each segment decoded and handed
// to an image.StreamSplitter the moment it arrives. Every segment is read
// and decoded into a buffer of its own that nothing refills, so the
// splitter may keep files by reference. Malformed input fails without
// large allocations: buffers grow only as bytes actually arrive.
func readImageDirFrom(r io.Reader) (*criu.ImageDir, error) {
	sp := image.NewStreamSplitter(0)
	var hdr [imageHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return nil, err
	}
	if string(hdr[:4]) != imageMagic {
		return nil, errNotImageStream
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return nil, err
	}
	if hdr[5] != 0 || hdr[6] != 0 || hdr[7] != 0 {
		return nil, fmt.Errorf("cluster: image stream: nonzero header padding")
	}
	// The header names what the sender was asked for, so only a codec
	// one can ask for belongs there; the forms CodecFlate picks among by
	// itself appear in segment headers alone.
	if hdrCodec := criu.Codec(hdr[4]); !hdrCodec.Requestable() {
		return nil, fmt.Errorf("cluster: image stream: bad codec %s", hdrCodec)
	}
	rawTotal := binary.BigEndian.Uint64(hdr[8:16])
	if rawTotal > maxImageBytes {
		return nil, fmt.Errorf("cluster: image of %d bytes exceeds limit", rawTotal)
	}
	var fed uint64
	for {
		var seg [imageSegHdrLen]byte
		if _, err := io.ReadFull(r, seg[:]); err != nil {
			return nil, err
		}
		rawLen := binary.BigEndian.Uint32(seg[0:4])
		wireLen := binary.BigEndian.Uint32(seg[4:8])
		codec := criu.Codec(seg[8])
		switch {
		case !codec.Valid():
			return nil, fmt.Errorf("cluster: image stream: bad segment codec %s", codec)
		case rawLen == 0 && rawTotal != 0:
			return nil, fmt.Errorf("cluster: image stream: empty segment")
		case rawLen > maxImageSegment:
			return nil, fmt.Errorf("cluster: image segment of %d bytes exceeds limit", rawLen)
		case uint64(wireLen) > uint64(rawLen):
			return nil, fmt.Errorf("cluster: image segment wire size %d exceeds raw size %d", wireLen, rawLen)
		case fed+uint64(rawLen) > rawTotal:
			return nil, fmt.Errorf("cluster: image segments overflow the declared %d bytes", rawTotal)
		}
		payload, err := readBounded(r, uint64(wireLen))
		if err != nil {
			return nil, err
		}
		raw, err := codec.Decompress(payload, int(rawLen))
		if err != nil {
			return nil, fmt.Errorf("cluster: image stream: %w", err)
		}
		if _, err := sp.Write(raw); err != nil {
			return nil, err
		}
		if fed += uint64(rawLen); fed == rawTotal {
			return sp.Close()
		}
	}
}

// readBounded reads exactly n bytes, growing the buffer in bounded
// chunks so the allocation tracks delivery, not the peer's claim.
func readBounded(r io.Reader, n uint64) ([]byte, error) {
	blob := make([]byte, 0, min(n, recvChunk))
	for uint64(len(blob)) < n {
		c := min(n-uint64(len(blob)), recvChunk)
		off := len(blob)
		blob = append(blob, make([]byte, c)...)
		if _, err := io.ReadFull(r, blob[off:]); err != nil {
			return nil, err
		}
	}
	return blob, nil
}
