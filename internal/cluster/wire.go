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
// telemetry names) with the page protocol's responses. See
// docs/transport.md.
//
//	stream  := "DIB3" codec(u8) pad(3 zero bytes) rawTotal(u64 BE) segment...
//	segment := rawLen(u32 BE) wireLen(u32 BE) codec(u8) payload[wireLen]
//
// Segments concatenate (after decoding) to exactly rawTotal bytes of
// ImageDir.Marshal output, the join of ImageDir.Parts. Each segment
// carries its own codec byte because CodecFlate chooses per segment among
// plain DEFLATE, DEFLATE over word planes and — when compression does not
// shrink it — the raw bytes; the header codec records what was requested.
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
	// recvChunk is the most readBounded allocates ahead of what has
	// arrived, so a corrupt length header costs memory only as fast as
	// bytes actually arrive instead of committing the claimed size.
	recvChunk = 1 << 20
)

// errNotImageStream refuses a transfer that does not open with the stream
// magic — a peer speaking some other framing, or line noise.
var errNotImageStream = errors.New("cluster: image stream: missing DIB3 magic")

// eachSegment cuts the image parts hold, read end to end, into segments
// of at most segBytes and hands emit each one's framing (the stream
// header in front of the first), payload — its own parts for CodecNone,
// else the one buffer the codec encoded them into — raw length and the
// codec that actually encoded it; an empty image is one empty segment.
// It is the one place a stream's bytes, its wire size and the "wire.*"
// telemetry are decided, so a TCP send and an in-process transfer report
// the same figures. It returns the image's length and the stream's, and
// refuses an image over the transfer cap before emitting anything. emit
// must not keep the framing or the list.
func eachSegment(parts [][]byte, codec criu.Codec, segBytes int, reg *obs.Registry, emit func(framing []byte, payload [][]byte, rawLen int, used criu.Codec) error) (raw, wire uint64, err error) {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if uint64(total) > maxImageBytes {
		return 0, 0, fmt.Errorf("cluster: image of %d bytes exceeds limit", total)
	}
	framing := make([]byte, imageHdrLen, imageHdrLen+imageSegHdrLen)
	copy(framing, imageMagic)
	framing[4] = byte(codec)
	binary.BigEndian.PutUint64(framing[8:16], uint64(total))
	var head []byte // what is left of the part being cut
	seg := make([][]byte, 0, len(parts))
	for done := 0; ; {
		n := 0
		for seg = seg[:0]; n < segBytes && done+n < total; {
			for len(head) == 0 {
				head, parts = parts[0], parts[1:]
			}
			c := min(len(head), segBytes-n)
			seg, head, n = append(seg, head[:c]), head[c:], n+c
		}
		//lint:ignore wallclock codec_ns is host-side codec cost telemetry, never part of modeled migration time
		start := time.Now()
		out, used, err := codec.Compress(seg...)
		//lint:ignore wallclock codec_ns is host-side codec cost telemetry, never part of modeled migration time
		reg.Histogram("wire.codec_ns").Observe(time.Since(start))
		if err != nil {
			return 0, 0, err
		}
		payload, payloadLen := seg, n
		if used != criu.CodecNone {
			payload, payloadLen = [][]byte{out}, len(out)
		}
		framing = binary.BigEndian.AppendUint32(framing, uint32(n))
		framing = append(binary.BigEndian.AppendUint32(framing, uint32(payloadLen)), byte(used))
		if err := emit(framing, payload, n, used); err != nil {
			return 0, 0, err
		}
		wire += uint64(len(framing) + payloadLen)
		framing = framing[:0]
		reg.Counter("wire.batches").Inc()
		reg.Counter(criu.WireFormCounter(used)).Inc()
		reg.Counter("wire.bytes_raw").Add(uint64(n))
		reg.Counter("wire.bytes_wire").Add(uint64(imageSegHdrLen + payloadLen))
		if done += n; done == total {
			return uint64(total), wire, nil
		}
	}
}

// writeImageParts writes the image parts hold as a segmented stream, each
// segment in one gathered write — uncompressed, straight from the frames
// — and returns the image's length and the bytes put on the wire. Wire
// telemetry ("wire.*") lands in reg; nil disables recording.
func writeImageParts(w io.Writer, parts [][]byte, codec criu.Codec, segBytes int, reg *obs.Registry) (raw, wire uint64, err error) {
	return eachSegment(parts, codec, segBytes, reg, func(framing []byte, payload [][]byte, _ int, _ criu.Codec) error {
		bufs := append(net.Buffers{framing}, payload...)
		_, err := bufs.WriteTo(w)
		return err
	})
}

// transfer is the in-process hand-off of an image directory to the one
// the destination restores from. The directory's parts are cut and
// encoded segment by segment exactly as a TCP send would carry them, so
// the image and wire sizes returned are measured, not estimated. For
// CodecNone there is no buffer for the link to carry: the destination
// gets dir.Share(), and the hand-off copies no image byte. A compressed
// codec's segments are decoded into an image.StreamSplitter, as a
// receiver would, so a codec that cannot read back what it wrote fails
// the migration in process too. dir's bytes are the destination's as much
// as the caller's from here on: neither writes through them again.
func transfer(dir *criu.ImageDir, codec criu.Codec, reg *obs.Registry) (got *criu.ImageDir, raw, wire uint64, err error) {
	var sp *image.StreamSplitter
	if codec != criu.CodecNone {
		sp = image.NewStreamSplitter(int(dir.Size())) // no file is larger
	}
	raw, wire, err = eachSegment(dir.Parts(), codec, imageSegment, reg, func(_ []byte, payload [][]byte, rawLen int, used criu.Codec) (err error) {
		if sp == nil {
			return nil
		}
		for _, p := range payload { // the segment's parts, or one encoded buffer
			if used != criu.CodecNone {
				if p, err = used.Decompress(p, rawLen); err != nil {
					return err
				}
			}
			if _, err = sp.Write(p); err != nil {
				return err
			}
		}
		return nil
	})
	switch {
	case err != nil:
		return nil, 0, 0, err
	case sp == nil:
		return dir.Share(), raw, wire, nil
	}
	got, err = sp.Close()
	return got, raw, wire, err
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

// readBounded reads exactly n bytes. What arrives is kept in chunks,
// each at most as long as all that came before it (recvChunk at first),
// so a header that lies about n costs at most twice the bytes actually
// sent, plus recvChunk. Once all but the last recvChunk bytes are in, the
// n-byte buffer is allocated, each chunk is copied into it once, and the
// rest is read straight into it: under 2n allocated in all.
func readBounded(r io.Reader, n uint64) ([]byte, error) {
	var chunks [][]byte
	for got := uint64(0); n-got > recvChunk; {
		c := make([]byte, min(n-got-recvChunk, max(got, recvChunk)))
		if _, err := io.ReadFull(r, c); err != nil {
			return nil, err
		}
		chunks, got = append(chunks, c), got+uint64(len(c))
	}
	blob := make([]byte, n)
	off := 0
	for _, c := range chunks {
		off += copy(blob[off:], c)
	}
	if _, err := io.ReadFull(r, blob[off:]); err != nil {
		return nil, err
	}
	return blob, nil
}
