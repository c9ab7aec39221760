// Package imgproto implements the wire format used by DAPPER's process
// images and binaries.
//
// CRIU serializes most of its image files as protocol-buffer messages; this
// package provides a from-scratch, dependency-free implementation of the
// same wire encoding (base-128 varints, zig-zag signed integers, tagged
// fields, and length-delimited payloads). Image and binary types state
// their format once, as struct tags, and Marshal and Unmarshal (schema.go)
// read them, which keeps the on-disk representation stable and
// independent of Go struct layout — exactly the property CRIT relies on to
// decode, rewrite, and re-encode images. Encoder is the field-level layer
// beneath, for messages built by hand.
package imgproto

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// WireType identifies how a field's payload is encoded on the wire.
type WireType uint8

// Wire types, mirroring the protobuf encoding.
const (
	WireVarint  WireType = 0 // varint-encoded integer
	WireFixed64 WireType = 1 // 8 bytes, little-endian
	WireBytes   WireType = 2 // varint length followed by raw bytes
)

// Sentinel errors reported by the Decoder.
var (
	// ErrTruncated indicates the buffer ended in the middle of a field.
	ErrTruncated = errors.New("imgproto: truncated message")
	// ErrOverflow indicates a varint exceeded 64 bits.
	ErrOverflow = errors.New("imgproto: varint overflows 64 bits")
	// ErrBadWireType indicates an unknown wire type in a field tag.
	ErrBadWireType = errors.New("imgproto: unknown wire type")
)

// FieldError records a decoding failure at a specific field number.
type FieldError struct {
	Field uint32
	// Name is the Go field the number decodes into, as Type.Field, when
	// Unmarshal knows it.
	Name string
	Err  error
}

func (e *FieldError) Error() string {
	if e.Name != "" {
		return fmt.Sprintf("imgproto: %s (field %d): %v", e.Name, e.Field, e.Err)
	}
	return fmt.Sprintf("imgproto: field %d: %v", e.Field, e.Err)
}

func (e *FieldError) Unwrap() error { return e.Err }

// AppendUvarint appends v to b in base-128 varint encoding.
func AppendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// Uvarint decodes a varint from b, returning the value and the number of
// bytes consumed. It returns an error if b is truncated or the value
// overflows 64 bits.
func Uvarint(b []byte) (uint64, int, error) {
	var v uint64
	for i := 0; i < len(b); i++ {
		c := b[i]
		if i == 9 && c > 1 {
			return 0, 0, ErrOverflow
		}
		v |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return v, i + 1, nil
		}
		if i == 9 {
			return 0, 0, ErrOverflow
		}
	}
	return 0, 0, ErrTruncated
}

// ZigZag encodes a signed integer so small magnitudes use few varint bytes.
func ZigZag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// UnZigZag reverses ZigZag.
func UnZigZag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Encoder builds a message by appending tagged fields to a buffer.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded message. The returned slice aliases the
// Encoder's internal buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

func (e *Encoder) tag(field uint32, wt WireType) {
	e.buf = AppendUvarint(e.buf, uint64(field)<<3|uint64(wt))
}

// Uint64 appends field as a varint.
func (e *Encoder) Uint64(field uint32, v uint64) {
	e.tag(field, WireVarint)
	e.buf = AppendUvarint(e.buf, v)
}

// Int64 appends field as a zig-zag varint.
func (e *Encoder) Int64(field uint32, v int64) {
	e.Uint64(field, ZigZag(v))
}

// Bool appends field as a 0/1 varint.
func (e *Encoder) Bool(field uint32, v bool) {
	var u uint64
	if v {
		u = 1
	}
	e.Uint64(field, u)
}

// Fixed64 appends field as 8 little-endian bytes.
func (e *Encoder) Fixed64(field uint32, v uint64) {
	e.tag(field, WireFixed64)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// Bytes appends field as a length-delimited byte string.
func (e *Encoder) BytesField(field uint32, v []byte) {
	e.tag(field, WireBytes)
	e.buf = AppendUvarint(e.buf, uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// String appends field as a length-delimited UTF-8 string.
func (e *Encoder) String(field uint32, v string) {
	e.tag(field, WireBytes)
	e.buf = AppendUvarint(e.buf, uint64(len(v)))
	e.buf = append(e.buf, v...)
}

// Message appends field as a length-delimited nested message, the fields
// fn appends. One byte is reserved for the length; a message too long for
// it moves up once its length is known.
func (e *Encoder) Message(field uint32, fn func(*Encoder)) {
	e.tag(field, WireBytes)
	start := len(e.buf)
	e.buf = append(e.buf, 0)
	fn(e)
	n := len(e.buf) - start - 1
	if n < 0x80 {
		e.buf[start] = byte(n)
		return
	}
	var l [10]byte
	ln := AppendUvarint(l[:0], uint64(n))
	e.buf = append(e.buf, ln[1:]...)
	copy(e.buf[start+len(ln):], e.buf[start+1:start+1+n])
	copy(e.buf[start:], ln)
}

// decoder walks the fields of an encoded message.
type decoder struct {
	buf []byte
	off int

	field uint32
	wt    WireType
	// payload for the current field
	u64 uint64
	raw []byte
}

// next advances to the next field, returning any wire-level error.
func (d *decoder) next() error {
	tag, n, err := Uvarint(d.buf[d.off:])
	if err != nil {
		return err
	}
	d.off += n
	d.field = uint32(tag >> 3)
	d.wt = WireType(tag & 7)
	switch d.wt {
	case WireVarint:
		v, n, err := Uvarint(d.buf[d.off:])
		if err != nil {
			return &FieldError{Field: d.field, Err: err}
		}
		d.off += n
		d.u64 = v
	case WireFixed64:
		if d.off+8 > len(d.buf) {
			return &FieldError{Field: d.field, Err: ErrTruncated}
		}
		d.u64 = binary.LittleEndian.Uint64(d.buf[d.off:])
		d.off += 8
	case WireBytes:
		ln, n, err := Uvarint(d.buf[d.off:])
		if err != nil {
			return &FieldError{Field: d.field, Err: err}
		}
		d.off += n
		// Compared this way round: d.off+ln wraps for a length near 2^64
		// and would pass.
		if ln > uint64(len(d.buf)-d.off) {
			return &FieldError{Field: d.field, Err: ErrTruncated}
		}
		d.raw = d.buf[d.off : d.off+int(ln)]
		d.off += int(ln)
	default:
		return &FieldError{Field: d.field, Err: ErrBadWireType}
	}
	return nil
}
