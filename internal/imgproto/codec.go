package imgproto

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Codec selects the wire codec for batched transport frames (the page
// protocol's batch frames and the image-copy stream's segments; see
// docs/transport.md). The zero value is CodecNone, so a zero-initialized
// option struct means "batched, uncompressed".
type Codec uint8

const (
	// CodecNone stores each batch payload verbatim.
	CodecNone Codec = iota
	// CodecFlate batches frames and DEFLATE-compresses each batch. A
	// batch whose compressed form is not smaller is sent as CodecNone
	// (the header carries the codec actually used), so the wire payload
	// never exceeds the raw payload.
	CodecFlate
)

// String names the codec for diagnostics and bench tables.
func (c Codec) String() string {
	switch c {
	case CodecNone:
		return "none"
	case CodecFlate:
		return "flate"
	default:
		return fmt.Sprintf("codec(%d)", uint8(c))
	}
}

// Valid reports whether c names a codec this build can decode; readers
// check every codec byte taken off the wire with it before trusting the
// lengths that follow.
func (c Codec) Valid() bool { return c <= CodecFlate }

// flateLevel is fixed so compressed output is deterministic for a given
// input — the byte-identity and bytes-on-wire regression tests depend on
// replayed migrations producing identical wire sizes.
const flateLevel = flate.BestSpeed

// flateEncoder is the reusable half of a CodecFlate Compress call: the
// compressor (about 640 KB of state a fresh flate.NewWriter allocates)
// and the scratch buffer it writes into. A page stream compresses a
// batch every 32 pages, so both are pooled and Reset per call; only the
// exact-size payload handed to the caller is allocated.
type flateEncoder struct {
	zw  *flate.Writer
	buf bytes.Buffer
}

// flateDecoder is Decompress's counterpart: the inflater and the reader
// feeding it.
type flateDecoder struct {
	zr io.ReadCloser // also a flate.Resetter
	br bytes.Reader
}

var (
	flateEncoders = sync.Pool{New: func() any {
		e := new(flateEncoder)
		// NewWriter fails only on a level outside flate's range.
		e.zw, _ = flate.NewWriter(&e.buf, flateLevel)
		return e
	}}
	flateDecoders = sync.Pool{New: func() any {
		d := new(flateDecoder)
		d.zr = flate.NewReader(&d.br)
		return d
	}}
)

// Compress encodes raw for the wire and returns the payload together
// with the codec that actually encoded it: CodecFlate downgrades itself
// to CodecNone when compression does not shrink the payload, so
// len(payload) <= len(raw) always holds. The returned payload may alias
// raw (for CodecNone); callers must write it before reusing the buffer.
func (c Codec) Compress(raw []byte) ([]byte, Codec, error) {
	switch c {
	case CodecNone:
		return raw, CodecNone, nil
	case CodecFlate:
		e := flateEncoders.Get().(*flateEncoder)
		defer flateEncoders.Put(e)
		e.buf.Reset()
		e.zw.Reset(&e.buf)
		if _, err := e.zw.Write(raw); err != nil {
			return nil, 0, fmt.Errorf("imgproto: flate write: %w", err)
		}
		if err := e.zw.Close(); err != nil {
			return nil, 0, fmt.Errorf("imgproto: flate close: %w", err)
		}
		if e.buf.Len() >= len(raw) {
			return raw, CodecNone, nil
		}
		return bytes.Clone(e.buf.Bytes()), CodecFlate, nil
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
		defer func() {
			d.br.Reset(nil) // do not pin the caller's payload in the pool
			flateDecoders.Put(d)
		}()
		d.br.Reset(wire)
		if err := d.zr.(flate.Resetter).Reset(&d.br, nil); err != nil {
			return nil, fmt.Errorf("imgproto: flate init: %w", err)
		}
		raw := make([]byte, rawLen)
		if _, err := io.ReadFull(d.zr, raw); err != nil {
			return nil, fmt.Errorf("imgproto: flate payload truncated: %w", err)
		}
		// The stream must end exactly at rawLen: trailing bytes mean the
		// header lied and the connection is desynchronized.
		var extra [1]byte
		if n, _ := d.zr.Read(extra[:]); n != 0 {
			return nil, fmt.Errorf("imgproto: flate payload longer than the %d-byte header claims", rawLen)
		}
		if err := d.zr.Close(); err != nil {
			return nil, fmt.Errorf("imgproto: flate payload corrupt: %w", err)
		}
		return raw, nil
	default:
		return nil, fmt.Errorf("imgproto: codec %s cannot decode batch payloads", c)
	}
}
