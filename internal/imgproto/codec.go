package imgproto

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
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
		var buf bytes.Buffer
		zw, err := flate.NewWriter(&buf, flateLevel)
		if err != nil {
			return nil, 0, fmt.Errorf("imgproto: flate init: %w", err)
		}
		if _, err := zw.Write(raw); err != nil {
			return nil, 0, fmt.Errorf("imgproto: flate write: %w", err)
		}
		if err := zw.Close(); err != nil {
			return nil, 0, fmt.Errorf("imgproto: flate close: %w", err)
		}
		if buf.Len() >= len(raw) {
			return raw, CodecNone, nil
		}
		return buf.Bytes(), CodecFlate, nil
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
		zr := flate.NewReader(bytes.NewReader(wire))
		raw := make([]byte, rawLen)
		if _, err := io.ReadFull(zr, raw); err != nil {
			return nil, fmt.Errorf("imgproto: flate payload truncated: %w", err)
		}
		// The stream must end exactly at rawLen: trailing bytes mean the
		// header lied and the connection is desynchronized.
		var extra [1]byte
		if n, _ := zr.Read(extra[:]); n != 0 {
			return nil, fmt.Errorf("imgproto: flate payload longer than the %d-byte header claims", rawLen)
		}
		if err := zr.Close(); err != nil {
			return nil, fmt.Errorf("imgproto: flate payload corrupt: %w", err)
		}
		return raw, nil
	default:
		return nil, fmt.Errorf("imgproto: codec %s cannot decode batch payloads", c)
	}
}
