// Streaming decode of the ImageDir wire encoding.
//
// ImageDir.Marshal is a concatenation of FrameFile outputs — one
// length-delimited protobuf message per file, each carrying the name and
// the payload. Because the layout is deterministic (field 1 name, field
// 2 data, both always emitted), a consumer does not need the whole blob
// to start working: the StreamSplitter parses frames incrementally from
// whatever bytes have arrived and rebuilds the directory file by file as
// they stream in.
package image

import (
	"errors"
	"fmt"
	"math"

	"github.com/dapper-sim/dapper/internal/imgproto"
)

// maxStreamName bounds a frame's file name so a corrupt header cannot
// make the splitter buffer unbounded garbage while "waiting for the
// name to complete". Real image names are tens of bytes.
const maxStreamName = 4096

// maxFrameHeader bounds a whole frame header: six varints (three tags,
// three lengths), each at most ten bytes however it is padded, around
// the name.
const maxFrameHeader = maxStreamName + 6*10

// StreamSplitter incrementally parses the ImageDir wire encoding
// (concatenated FrameFile frames) and rebuilds the directory in memory
// (UnmarshalImageDir is a splitter over one blob). Write may be called
// with arbitrarily fragmented input — segment by segment as the transport
// decompresses them; Close verifies the stream ended on a frame boundary.
//
// A file that arrives in one chunk — every file of a blob parsed whole,
// and pages.img of any image that fits one transport segment — is kept by
// reference, so the directory aliases the buffers the stream was written
// from; only a file spanning chunks is assembled in a buffer of its own.
type StreamSplitter struct {
	dir *ImageDir
	// hdr accumulates header bytes (outer tag+len, name field, data
	// field tag+len) until they parse; payload bytes never land here.
	hdr []byte
	// name and buf are the file being received: the bytes of it that
	// have arrived.
	name string
	buf  []byte
	// remaining counts payload bytes still owed to the current file;
	// zero means the splitter is between frames, parsing a header.
	remaining int
	// prealloc bounds what a file's buffer is allocated at on a frame
	// header's say-so.
	prealloc int
	err      error
}

// streamPrealloc is the bound for a stream of unknown length. A larger
// file's buffer doubles as its payload actually arrives, so a header that
// lies about the size costs at most twice the bytes delivered; files up
// to the bound get one exact allocation.
const streamPrealloc = 8 << 20

// NewStreamSplitter returns a splitter for a stream of total bytes that
// the caller already holds whole: no file in it can be larger, so a file
// that has to be assembled gets one exact allocation. A total of 0 means
// the length is the peer's claim, and streamPrealloc bounds the buffers.
func NewStreamSplitter(total int) *StreamSplitter {
	if total == 0 {
		total = streamPrealloc
	}
	return &StreamSplitter{dir: NewImageDir(), prealloc: total}
}

// errNeedMore signals an incomplete header; more input will resolve it.
var errNeedMore = errors.New("need more bytes")

// Write implements io.Writer: it consumes p completely or fails. After
// an error the splitter is poisoned and every later call returns it. The
// directory keeps slices of p, so the caller gives p up: a marshaled
// blob, a freshly decompressed or received segment — never a buffer it
// refills, and never one it writes through: the other files of the
// stream share the same buffer.
func (s *StreamSplitter) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n := len(p)
	for len(p) > 0 {
		if s.remaining == 0 {
			// Header bytes are tiny (tag/length varints plus the name):
			// buffer only as many as a header can span, so payload bytes
			// that follow it in p reach the directory by reference, never
			// through hdr.
			held := len(s.hdr)
			take := min(len(p), maxFrameHeader-held)
			s.hdr = append(s.hdr, p[:take]...)
			name, dataLen, used, err := parseFrameHeader(s.hdr)
			if err == errNeedMore {
				if take > 0 {
					p = p[take:]
					continue
				}
				// hdr is full and still no header: unreachable while
				// maxFrameHeader covers the longest header parseFrameHeader
				// accepts, and a refusal, never a spin, if it stops doing so.
				err = fmt.Errorf("image: stream frame header exceeds %d bytes", maxFrameHeader)
			}
			if err != nil {
				s.err = err
				return 0, err
			}
			// The header ended used-held bytes into p; the payload (none,
			// for an empty file) starts there.
			p = p[used-held:]
			s.hdr = s.hdr[:0]
			s.name, s.buf, s.remaining = name, []byte{}, dataLen
		}
		if take := min(len(p), s.remaining); take > 0 {
			s.chunk(p[:take])
			s.remaining -= take
			p = p[take:]
		}
		if s.remaining == 0 {
			s.dir.Put(s.name, s.buf)
			s.name, s.buf = "", nil
		}
	}
	return n, nil
}

// chunk appends p, the next bytes of the current file, to it. A first
// chunk that is the whole file is the file: chunks are stable, so it is
// kept as it came, capped so an append cannot reach the frame behind it.
// Otherwise the file's buffer is allocated when its first bytes arrive,
// in one step with copying them in, so only the part they do not cover is
// zeroed first.
func (s *StreamSplitter) chunk(p []byte) {
	size := len(s.buf) + s.remaining
	if cap(s.buf) == 0 {
		if len(p) == size {
			s.buf = p[:len(p):len(p)]
			return
		}
		buf := make([]byte, max(len(p), min(size, s.prealloc)))
		copy(buf, p)
		s.buf = buf[:len(p)]
		return
	}
	if need := len(s.buf) + len(p); need > cap(s.buf) {
		grown := make([]byte, len(s.buf), min(size, max(need, 2*cap(s.buf))))
		copy(grown, s.buf)
		s.buf = grown
	}
	s.buf = append(s.buf, p...)
}

// Close verifies the stream ended exactly on a frame boundary and returns
// the directory it carried.
func (s *StreamSplitter) Close() (*ImageDir, error) {
	switch {
	case s.err != nil:
		return nil, s.err
	case s.remaining > 0:
		return nil, fmt.Errorf("image: stream truncated: %d payload bytes missing", s.remaining)
	case len(s.hdr) > 0:
		return nil, fmt.Errorf("image: stream truncated inside a frame header (%d bytes)", len(s.hdr))
	}
	return s.dir, nil
}

// parseFrameHeader parses one FrameFile prefix — outer tag and length,
// the name field, and the data field's tag and length — returning the
// file name, the payload size, and how many of b's bytes the header
// consumed. errNeedMore means b is a valid but incomplete prefix.
// FrameFile's layout is fixed (Encoder always emits both fields, in
// order), so anything else is a corrupt stream, not a variant encoding.
func parseFrameHeader(b []byte) (name string, dataLen, used int, err error) {
	const (
		outerTag = 1<<3 | uint64(imgproto.WireBytes) // ImageDir entry
		nameTag  = 1<<3 | uint64(imgproto.WireBytes) // field 1: name
		dataTag  = 2<<3 | uint64(imgproto.WireBytes) // field 2: payload
	)
	off := 0
	next := func() (uint64, error) {
		v, n, uerr := imgproto.Uvarint(b[off:])
		if uerr != nil {
			if errors.Is(uerr, imgproto.ErrTruncated) {
				return 0, errNeedMore
			}
			return 0, uerr
		}
		off += n
		return v, nil
	}
	tag, err := next()
	if err != nil {
		return "", 0, 0, err
	}
	if tag != outerTag {
		return "", 0, 0, fmt.Errorf("image: stream frame tag 0x%x, want directory entry", tag)
	}
	outerLen, err := next()
	if err != nil {
		return "", 0, 0, err
	}
	innerStart := off
	ntag, err := next()
	if err != nil {
		return "", 0, 0, err
	}
	if ntag != nameTag {
		return "", 0, 0, fmt.Errorf("image: stream frame inner tag 0x%x, want name field", ntag)
	}
	nameLen, err := next()
	if err != nil {
		return "", 0, 0, err
	}
	if nameLen > maxStreamName {
		return "", 0, 0, fmt.Errorf("image: stream frame name of %d bytes exceeds limit", nameLen)
	}
	if off+int(nameLen) > len(b) {
		return "", 0, 0, errNeedMore
	}
	name = string(b[off : off+int(nameLen)])
	off += int(nameLen)
	dtag, err := next()
	if err != nil {
		return "", 0, 0, err
	}
	if dtag != dataTag {
		return "", 0, 0, fmt.Errorf("image: stream frame %q: inner tag 0x%x, want data field", name, dtag)
	}
	dlen, err := next()
	if err != nil {
		return "", 0, 0, err
	}
	if dlen > math.MaxInt {
		return "", 0, 0, fmt.Errorf("image: stream frame %q: payload of %d bytes exceeds limit", name, dlen)
	}
	// The outer length must cover the inner fields exactly: name header
	// and bytes, data header, data bytes — no slack, no overrun.
	innerHdr := off - innerStart
	if uint64(innerHdr)+dlen != outerLen {
		return "", 0, 0, fmt.Errorf("image: stream frame %q: outer length %d != inner %d+%d", name, outerLen, innerHdr, dlen)
	}
	return name, int(dlen), off, nil
}
