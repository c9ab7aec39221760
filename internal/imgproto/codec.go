package imgproto

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// Codec selects the wire codec for transport payloads (the page
// protocol's response frames and the image-copy stream's segments; see
// docs/transport.md). The zero value is CodecNone, so a zero-initialized
// option struct means "framed, uncompressed".
type Codec uint8

const (
	// CodecNone stores each payload verbatim.
	CodecNone Codec = iota
	// CodecFlate DEFLATE-compresses each payload, choosing per payload
	// the smallest of three forms and naming the one it used in the
	// codec byte that rides beside the payload:
	// plain DEFLATE (CodecFlate), DEFLATE over the payload's eight word
	// planes (CodecFlateWords), or the raw bytes (CodecNone) when
	// compression does not shrink them — so the wire payload never
	// exceeds the raw payload.
	CodecFlate
	// CodecFlateWords is DEFLATE of the payload transposed into its
	// eight byte planes (see toPlanes). Guest scalars are 8 bytes wide,
	// and a heap of small integers is mostly zero bytes but hardly any
	// zero words: plane by plane it is long zero runs and slowly varying
	// streams, where byte-wise LZ77 over the words themselves meets a
	// literal every two or three bytes. CodecFlate.Compress picks it per
	// payload; it is decodable but never requestable.
	CodecFlateWords
)

// String names the codec for diagnostics and bench tables.
func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecFlate:
		return "flate"
	case CodecFlateWords:
		return "flate-words"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// Valid reports whether c names a codec this build can decode; readers
// check the codec byte of every segment and page frame taken off the wire
// with it before trusting the lengths that follow.
func (c Codec) Valid() bool { return c <= CodecFlateWords }

// Requestable reports whether a peer may ask for payloads to be encoded
// with c — the codec bytes of a page hello, its acknowledgment and an
// image-stream header. It is narrower than Valid: the forms CodecFlate
// chooses between on its own are named only beside a payload.
func (c Codec) Requestable() bool { return c <= CodecFlate }

// flateLevel is fixed so compressed output is deterministic for a given
// input — the byte-identity and bytes-on-wire regression tests depend on
// replayed migrations producing identical wire sizes.
const flateLevel = flate.BestSpeed

// The form trial (docs/transport.md, "Choosing the form"): a payload of
// at least trialFloor bytes has trialChunks chunks of trialChunk bytes,
// spread evenly over it, deflated both plain and as word planes; the
// smaller result names the form the whole payload is encoded in, and
// when neither saves 1/trialMinSaving of the sample the payload goes out
// raw without being deflated at all. Smaller payloads stay plain: the two
// sample deflates cost about as much as compressing 128 KiB outright.
const (
	trialFloor     = 1 << 20
	trialChunks    = 16
	trialChunk     = 4096
	trialMinSaving = 16
)

// flateEncoder is the reusable half of a CodecFlate Compress call: the
// compressor (about 640 KB of state a fresh flate.NewWriter allocates),
// the scratch buffer it writes into, and the buffer a payload's word
// planes are laid out in. A page stream compresses a payload per
// fault, so all are pooled and Reset per call; only the exact-size
// payload handed to the caller is allocated.
type flateEncoder struct {
	zw     *flate.Writer
	buf    bytes.Buffer
	planes []byte
}

// flateDecoder is Decompress's counterpart: the inflater, the reader
// feeding it, and the buffer a CodecFlateWords payload inflates into
// before its planes are interleaved back into words.
type flateDecoder struct {
	zr     io.ReadCloser // also a flate.Resetter
	br     bytes.Reader
	planes []byte
}

var (
	flateEncoders = sync.Pool{New: func() any { return newFlateEncoder() }}
	flateDecoders = sync.Pool{New: func() any {
		d := new(flateDecoder)
		d.zr = flate.NewReader(&d.br)
		return d
	}}
)

func newFlateEncoder() *flateEncoder {
	e := new(flateEncoder)
	// NewWriter fails only on a level outside flate's range.
	e.zw, _ = flate.NewWriter(&e.buf, flateLevel)
	return e
}

// deflate compresses src into e.buf, replacing what it held, ending a
// DEFLATE block — so starting a fresh Huffman table — every blockLen
// bytes.
func (e *flateEncoder) deflate(src []byte, blockLen int) error {
	e.buf.Reset()
	e.zw.Reset(&e.buf)
	for ; len(src) > blockLen; src = src[blockLen:] {
		if _, err := e.zw.Write(src[:blockLen]); err != nil {
			return fmt.Errorf("imgproto: flate write: %w", err)
		}
		if err := e.zw.Flush(); err != nil {
			return fmt.Errorf("imgproto: flate flush: %w", err)
		}
	}
	if _, err := e.zw.Write(src); err != nil {
		return fmt.Errorf("imgproto: flate write: %w", err)
	}
	if err := e.zw.Close(); err != nil {
		return fmt.Errorf("imgproto: flate close: %w", err)
	}
	return nil
}

// chooseForm runs the form trial on raw. It is a function of raw alone,
// so a replayed migration chooses — and sizes — every payload the same.
func (e *flateEncoder) chooseForm(raw []byte) (Codec, error) {
	if len(raw) < trialFloor {
		return CodecFlate, nil
	}
	const sampleLen = trialChunks * trialChunk
	e.planes = grow(e.planes, 2*sampleLen)
	sample, planes := e.planes[:sampleLen], e.planes[sampleLen:]
	for i := 0; i < trialChunks; i++ {
		// Chunk starts keep the payload's word phase, so the sample's
		// planes are the payload's planes.
		off := (len(raw) - trialChunk) / (trialChunks - 1) * i &^ 7
		copy(sample[i*trialChunk:], raw[off:off+trialChunk])
	}
	if err := e.deflate(sample, sampleLen); err != nil {
		return 0, err
	}
	plain := e.buf.Len()
	// One block per plane: level 1 starts a block every 64 KiB, so in a
	// payload over the floor no block spans two planes and each plane is
	// coded with a Huffman table of its own. Eight planes sharing the
	// sample's one table would read up to a third larger than they go out.
	toPlanes(planes, sample)
	if err := e.deflate(planes, sampleLen/8); err != nil {
		return 0, err
	}
	words := e.buf.Len()
	switch {
	case min(plain, words) > sampleLen-sampleLen/trialMinSaving:
		return CodecNone, nil
	case words < plain:
		return CodecFlateWords, nil
	default:
		return CodecFlate, nil
	}
}

// compress is CodecFlate.Compress on this encoder.
func (e *flateEncoder) compress(raw []byte) ([]byte, Codec, error) {
	form, err := e.chooseForm(raw)
	if err != nil {
		return nil, 0, err
	}
	src := raw
	switch form {
	case CodecNone:
		return raw, CodecNone, nil
	case CodecFlateWords:
		e.planes = grow(e.planes, len(raw))
		src = e.planes
		toPlanes(src, raw)
	}
	if err := e.deflate(src, len(src)); err != nil {
		return nil, 0, err
	}
	if e.buf.Len() >= len(raw) {
		return raw, CodecNone, nil
	}
	return bytes.Clone(e.buf.Bytes()), form, nil
}

// inflate decodes wire into dst, which it must fill exactly.
func (d *flateDecoder) inflate(dst, wire []byte) error {
	defer d.br.Reset(nil) // do not pin the caller's payload in the pool
	d.br.Reset(wire)
	if err := d.zr.(flate.Resetter).Reset(&d.br, nil); err != nil {
		return fmt.Errorf("imgproto: flate init: %w", err)
	}
	if _, err := io.ReadFull(d.zr, dst); err != nil {
		return fmt.Errorf("imgproto: flate payload truncated: %w", err)
	}
	// The stream must end exactly at len(dst): trailing bytes mean the
	// header lied and the connection is desynchronized.
	var extra [1]byte
	if n, _ := d.zr.Read(extra[:]); n != 0 {
		return fmt.Errorf("imgproto: flate payload longer than the %d-byte header claims", len(dst))
	}
	if err := d.zr.Close(); err != nil {
		return fmt.Errorf("imgproto: flate payload corrupt: %w", err)
	}
	// The inflater takes wire a byte at a time and stops inside the one
	// holding the stream's last bit, so anything left over is not its.
	if n := d.br.Len(); n != 0 {
		return fmt.Errorf("imgproto: flate payload has %d bytes after the end of its stream", n)
	}
	return nil
}

// grow returns buf resized to n bytes, reallocating (and dropping the old
// contents) only when its capacity is short.
func grow(buf []byte, n int) []byte {
	if cap(buf) < n {
		return make([]byte, n)
	}
	return buf[:n]
}

// toPlanes transposes src, read as little-endian 64-bit words, into its
// eight byte planes: dst holds byte 0 of every word, then byte 1 of
// every word, and so on, and last the len(src)%8 bytes that make up no
// whole word, unchanged. len(dst) must equal len(src). Nothing depends
// on where the guest's words actually start within src: a payload out of
// phase by k bytes yields the same planes in rotated order.
func toPlanes(dst, src []byte) {
	n := len(src) / 8
	p0, p1, p2, p3 := dst[:n], dst[n:2*n], dst[2*n:3*n], dst[3*n:4*n]
	p4, p5, p6, p7 := dst[4*n:5*n], dst[5*n:6*n], dst[6*n:7*n], dst[7*n:8*n]
	for i := 0; i < n; i++ {
		w := binary.LittleEndian.Uint64(src[8*i:])
		p0[i], p1[i], p2[i], p3[i] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
		p4[i], p5[i], p6[i], p7[i] = byte(w>>32), byte(w>>40), byte(w>>48), byte(w>>56)
	}
	copy(dst[8*n:], src[8*n:])
}

// fromPlanes is toPlanes' inverse.
func fromPlanes(dst, src []byte) {
	n := len(src) / 8
	p0, p1, p2, p3 := src[:n], src[n:2*n], src[2*n:3*n], src[3*n:4*n]
	p4, p5, p6, p7 := src[4*n:5*n], src[5*n:6*n], src[6*n:7*n], src[7*n:8*n]
	for i := 0; i < n; i++ {
		w := uint64(p0[i]) | uint64(p1[i])<<8 | uint64(p2[i])<<16 | uint64(p3[i])<<24 |
			uint64(p4[i])<<32 | uint64(p5[i])<<40 | uint64(p6[i])<<48 | uint64(p7[i])<<56
		binary.LittleEndian.PutUint64(dst[8*i:], w)
	}
	copy(dst[8*n:], src[8*n:])
}

// Compress encodes raw for the wire and returns the payload together
// with the codec that actually encoded it — for CodecFlate one of
// CodecFlate, CodecFlateWords and CodecNone, so len(payload) <= len(raw)
// always holds. The returned payload may alias raw (for CodecNone);
// callers must write it before reusing the buffer.
func (c Codec) Compress(raw []byte) ([]byte, Codec, error) {
	switch c {
	case CodecNone:
		return raw, CodecNone, nil
	case CodecFlate:
		e := flateEncoders.Get().(*flateEncoder)
		defer flateEncoders.Put(e)
		return e.compress(raw)
	default:
		return nil, 0, fmt.Errorf("imgproto: codec %s cannot encode batch payloads", c)
	}
}

// Decompress decodes a batch payload produced by Compress with this
// codec, verifying it expands to exactly rawLen bytes with no trailing
// garbage.
func (c Codec) Decompress(wire []byte, rawLen int) ([]byte, error) {
	switch c {
	case CodecNone:
		if len(wire) != rawLen {
			return nil, fmt.Errorf("imgproto: uncompressed payload is %d bytes, header says %d", len(wire), rawLen)
		}
		return wire, nil
	case CodecFlate:
		d := flateDecoders.Get().(*flateDecoder)
		defer flateDecoders.Put(d)
		raw := make([]byte, rawLen)
		if err := d.inflate(raw, wire); err != nil {
			return nil, err
		}
		return raw, nil
	case CodecFlateWords:
		d := flateDecoders.Get().(*flateDecoder)
		defer flateDecoders.Put(d)
		d.planes = grow(d.planes, rawLen)
		if err := d.inflate(d.planes, wire); err != nil {
			return nil, err
		}
		raw := make([]byte, rawLen)
		fromPlanes(raw, d.planes)
		return raw, nil
	default:
		return nil, fmt.Errorf("imgproto: codec %s cannot decode batch payloads", c)
	}
}
