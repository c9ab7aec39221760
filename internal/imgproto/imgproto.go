// Package imgproto implements the wire format used by DAPPER's process
// images and binaries.
//
// CRIU serializes most of its image files as protocol-buffer messages; this
// package provides a from-scratch, dependency-free implementation of the
// same wire encoding (base-128 varints, zig-zag signed integers, tagged
// fields, and length-delimited payloads). Image and binary types marshal
// themselves through an Encoder and parse through a Decoder, which keeps
// the on-disk representation stable and independent of Go struct layout —
// exactly the property CRIT relies on to decode, rewrite, and re-encode
// images.
package imgproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
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
	Err   error
}

func (e *FieldError) Error() string {
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

// NewEncoder returns an Encoder that appends to buf (which may be nil).
func NewEncoder(buf []byte) *Encoder { return &Encoder{buf: buf} }

// Bytes returns the encoded message. The returned slice aliases the
// Encoder's internal buffer.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the current encoded length in bytes.
func (e *Encoder) Len() int { return len(e.buf) }

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

// Float64 appends field as the IEEE-754 bits of v.
func (e *Encoder) Float64(field uint32, v float64) {
	e.Fixed64(field, math.Float64bits(v))
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

// Message appends field as a length-delimited nested message produced by fn.
func (e *Encoder) Message(field uint32, fn func(*Encoder)) {
	var nested Encoder
	fn(&nested)
	e.BytesField(field, nested.buf)
}

// Uint64s appends each element of vs as a repeated varint field.
func (e *Encoder) Uint64s(field uint32, vs []uint64) {
	for _, v := range vs {
		e.Uint64(field, v)
	}
}

// Int64s appends each element of vs as a repeated zig-zag field.
func (e *Encoder) Int64s(field uint32, vs []int64) {
	for _, v := range vs {
		e.Int64(field, v)
	}
}

// Decoder iterates over the fields of an encoded message.
type Decoder struct {
	buf []byte
	off int

	field uint32
	wt    WireType
	// payload for the current field
	u64 uint64
	raw []byte
}

// NewDecoder returns a Decoder reading from buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// next advances to the next field, returning any wire-level error; Each
// drives it over the whole message and stops at the first failure.
func (d *Decoder) next() error {
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

// Each calls fn for every field in the message. fn receives the field
// number and the Decoder positioned at that field's payload; it should use
// the typed accessors (FieldUint64, FieldBytes, ...) to read it. Decoding
// stops at the first error from the wire or from fn.
func (d *Decoder) Each(fn func(field uint32, d *Decoder) error) error {
	for d.off < len(d.buf) {
		if err := d.next(); err != nil {
			return err
		}
		if err := fn(d.field, d); err != nil {
			return err
		}
	}
	return nil
}

// FieldUint64 returns the current field as an unsigned varint or fixed64.
func (d *Decoder) FieldUint64() (uint64, error) {
	switch d.wt {
	case WireVarint, WireFixed64:
		return d.u64, nil
	default:
		return 0, &FieldError{Field: d.field, Err: fmt.Errorf("want numeric, got wire type %d", d.wt)}
	}
}

// FieldInt64 returns the current field as a zig-zag signed integer.
func (d *Decoder) FieldInt64() (int64, error) {
	u, err := d.FieldUint64()
	if err != nil {
		return 0, err
	}
	return UnZigZag(u), nil
}

// FieldBool returns the current field as a boolean.
func (d *Decoder) FieldBool() (bool, error) {
	u, err := d.FieldUint64()
	return u != 0, err
}

// FieldFloat64 returns the current field interpreted as IEEE-754 bits.
func (d *Decoder) FieldFloat64() (float64, error) {
	u, err := d.FieldUint64()
	return math.Float64frombits(u), err
}

// FieldBytes returns the current length-delimited field. The slice aliases
// the Decoder's buffer.
func (d *Decoder) FieldBytes() ([]byte, error) {
	if d.wt != WireBytes {
		return nil, &FieldError{Field: d.field, Err: fmt.Errorf("want bytes, got wire type %d", d.wt)}
	}
	return d.raw, nil
}

// FieldString returns the current length-delimited field as a string.
func (d *Decoder) FieldString() (string, error) {
	b, err := d.FieldBytes()
	return string(b), err
}

// FieldMessage decodes the current length-delimited field as a nested
// message by invoking fn for each of its fields.
func (d *Decoder) FieldMessage(fn func(field uint32, d *Decoder) error) error {
	b, err := d.FieldBytes()
	if err != nil {
		return err
	}
	return NewDecoder(b).Each(fn)
}
