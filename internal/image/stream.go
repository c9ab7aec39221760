// Streaming decode of the ImageDir wire encoding.
//
// ImageDir.Marshal is a concatenation of FrameFile outputs — one
// length-delimited protobuf message per file, each carrying the name and
// the payload. Because the layout is deterministic (field 1 name, field
// 2 data, both always emitted), a consumer does not need the whole blob
// to start working: the StreamSplitter parses frames incrementally from
// whatever bytes have arrived and hands file payloads to a StreamSink as
// they stream in. This is what lets a restore begin mapping VMAs and
// verifying metadata — the small files sort before pages.img — while
// page payloads are still on the wire.
package image

import (
	"errors"
	"fmt"
	"math"

	"github.com/dapper-sim/dapper/internal/imgproto"
)

// StreamSink consumes an image directory file by file as it decodes.
// Events arrive strictly in stream order: BeginFile(name, size), then
// FileChunk zero or more times covering exactly size bytes, then
// EndFile. Chunks alias the buffers handed to StreamSplitter.Write and
// are stable: whoever calls Write never writes those bytes again, so a
// sink may keep a chunk by reference for as long as it likes. It must not
// write through one either — the other files of the stream share the
// same buffer.
type StreamSink interface {
	// BeginFile announces the next file and its exact payload size.
	BeginFile(name string, size int) error
	// FileChunk delivers the next run of payload bytes.
	FileChunk(p []byte) error
	// EndFile marks the payload complete.
	EndFile() error
}

// maxStreamName bounds a frame's file name so a corrupt header cannot
// make the splitter buffer unbounded garbage while "waiting for the
// name to complete". Real image names are tens of bytes.
const maxStreamName = 4096

// maxFrameHeader bounds a whole frame header: six varints (three tags,
// three lengths), each at most ten bytes however it is padded, around
// the name.
const maxFrameHeader = maxStreamName + 6*10

// StreamSplitter incrementally parses the ImageDir wire encoding
// (concatenated FrameFile frames) and feeds a StreamSink. Write may be
// called with arbitrarily fragmented input — segment by segment as the
// transport decompresses them; Close verifies the stream ended on a
// frame boundary.
type StreamSplitter struct {
	sink StreamSink
	// hdr accumulates header bytes (outer tag+len, name field, data
	// field tag+len) until they parse; payload bytes never land here.
	hdr []byte
	// remaining counts payload bytes still owed to the current file;
	// zero means the splitter is between frames, parsing a header.
	remaining int
	err       error
}

// NewStreamSplitter returns a splitter feeding sink.
func NewStreamSplitter(sink StreamSink) *StreamSplitter {
	return &StreamSplitter{sink: sink}
}

// errNeedMore signals an incomplete header; more input will resolve it.
var errNeedMore = errors.New("need more bytes")

// Write implements io.Writer: it consumes p completely or fails. After
// an error the splitter is poisoned and every later call returns it. The
// sink may retain slices of p (see StreamSink), so the caller gives p up:
// a marshaled blob, a freshly decompressed or received segment — never a
// buffer it refills.
func (s *StreamSplitter) Write(p []byte) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	n := len(p)
	for len(p) > 0 {
		if s.remaining == 0 {
			// Header bytes are tiny (tag/length varints plus the name):
			// buffer only as many as a header can span, so payload bytes
			// that follow it in p reach the sink by reference, never
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
			if err == nil {
				err = s.sink.BeginFile(name, dataLen)
			}
			if err != nil {
				return s.fail(err)
			}
			// The header ended used-held bytes into p; the payload (none,
			// for an empty file) starts there.
			p = p[used-held:]
			s.hdr = s.hdr[:0]
			s.remaining = dataLen
		}
		if take := min(len(p), s.remaining); take > 0 {
			if err := s.sink.FileChunk(p[:take]); err != nil {
				return s.fail(err)
			}
			s.remaining -= take
			p = p[take:]
		}
		if s.remaining == 0 {
			if err := s.sink.EndFile(); err != nil {
				return s.fail(err)
			}
		}
	}
	return n, nil
}

// fail poisons the splitter with err.
func (s *StreamSplitter) fail(err error) (int, error) {
	s.err = err
	return 0, err
}

// Close verifies the stream ended exactly on a frame boundary.
func (s *StreamSplitter) Close() error {
	if s.err != nil {
		return s.err
	}
	if s.remaining > 0 {
		return fmt.Errorf("image: stream truncated: %d payload bytes missing", s.remaining)
	}
	if len(s.hdr) > 0 {
		return fmt.Errorf("image: stream truncated inside a frame header (%d bytes)", len(s.hdr))
	}
	return nil
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

// DirSink is the trivial StreamSink: it rebuilds the ImageDir in memory
// (UnmarshalImageDir is a splitter over one). A file that arrives in one
// chunk — every file of a blob parsed whole, and pages.img of any image
// that fits one transport segment — is kept by reference, so the directory
// aliases the buffers the stream was written from; only a file spanning
// chunks is assembled in a buffer of its own.
type DirSink struct {
	dir  *ImageDir
	name string
	size int
	buf  []byte
	// prealloc bounds what FileChunk allocates on a frame header's say-so.
	prealloc int
}

// dirSinkPrealloc is the bound for a stream of unknown length. A larger
// file's buffer doubles as its payload actually arrives, so a header that
// lies about the size costs at most twice the bytes delivered; files up
// to the bound get one exact allocation.
const dirSinkPrealloc = 8 << 20

// NewDirSink returns a sink accumulating into a fresh directory from a
// stream whose length is the peer's claim.
func NewDirSink() *DirSink { return &DirSink{dir: NewImageDir(), prealloc: dirSinkPrealloc} }

// NewDirSinkFor returns a sink for a stream the caller already holds
// whole, total bytes of it: no file in it can be larger, so a file that
// has to be assembled gets one exact allocation.
func NewDirSinkFor(total int) *DirSink { return &DirSink{dir: NewImageDir(), prealloc: total} }

// Dir returns the directory built so far.
func (d *DirSink) Dir() *ImageDir { return d.dir }

// BeginFile implements StreamSink.
func (d *DirSink) BeginFile(name string, size int) error {
	d.name, d.size, d.buf = name, size, []byte{}
	return nil
}

// FileChunk implements StreamSink. A first chunk that is the whole file
// is the file: chunks are stable, so it is kept as it came, capped so an
// append cannot reach the frame behind it. Otherwise the file's buffer is
// allocated when its first bytes arrive, in one step with copying them
// in, so only the part they do not cover is zeroed first.
func (d *DirSink) FileChunk(p []byte) error {
	if cap(d.buf) == 0 {
		if len(p) == d.size {
			d.buf = p[:len(p):len(p)]
			return nil
		}
		buf := make([]byte, max(len(p), min(d.size, d.prealloc)))
		copy(buf, p)
		d.buf = buf[:len(p)]
		return nil
	}
	if need := len(d.buf) + len(p); need > cap(d.buf) {
		grown := make([]byte, len(d.buf), min(d.size, max(need, 2*cap(d.buf))))
		copy(grown, d.buf)
		d.buf = grown
	}
	d.buf = append(d.buf, p...)
	return nil
}

// EndFile implements StreamSink.
func (d *DirSink) EndFile() error {
	d.dir.Put(d.name, d.buf)
	d.name, d.buf = "", nil
	return nil
}

var _ StreamSink = (*DirSink)(nil)
