package imgproto

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestUvarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<32 - 1, 1 << 63, math.MaxUint64}
	for _, v := range cases {
		b := AppendUvarint(nil, v)
		got, n, err := Uvarint(b)
		if err != nil {
			t.Fatalf("Uvarint(%d): %v", v, err)
		}
		if got != v || n != len(b) {
			t.Errorf("Uvarint(%d) = %d (n=%d, len=%d)", v, got, n, len(b))
		}
	}
}

func TestUvarintProperty(t *testing.T) {
	f := func(v uint64) bool {
		b := AppendUvarint(nil, v)
		got, n, err := Uvarint(b)
		return err == nil && got == v && n == len(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUvarintTruncated(t *testing.T) {
	b := AppendUvarint(nil, 1<<40)
	for i := 0; i < len(b); i++ {
		if _, _, err := Uvarint(b[:i]); !errors.Is(err, ErrTruncated) {
			t.Errorf("prefix %d: want ErrTruncated, got %v", i, err)
		}
	}
}

func TestUvarintOverflow(t *testing.T) {
	// 11 continuation bytes can never be a valid 64-bit varint.
	b := bytes.Repeat([]byte{0xff}, 11)
	if _, _, err := Uvarint(b); !errors.Is(err, ErrOverflow) {
		t.Errorf("want ErrOverflow, got %v", err)
	}
}

func TestZigZagProperty(t *testing.T) {
	f := func(v int64) bool { return UnZigZag(ZigZag(v)) == v }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Small magnitudes must encode small.
	for _, v := range []int64{-1, 1, -64, 63} {
		if ZigZag(v) > 127 {
			t.Errorf("ZigZag(%d) = %d, want single byte", v, ZigZag(v))
		}
	}
}

// allTypes is a message with a field of every shape Unmarshal decodes.
type allTypes struct {
	U   uint64   `img:"1"`
	I   int64    `img:"2,zigzag"`
	B   bool     `img:"3"`
	F   uint64   `img:"4,fixed"`
	By  []byte   `img:"6"`
	S   string   `img:"7"`
	N   nested   `img:"8"`
	Rep []uint64 `img:"9"`
}

type nested struct {
	U uint64 `img:"1"`
	S string `img:"2"`
}

func TestEncoderDecoderAllTypes(t *testing.T) {
	var e Encoder
	e.Uint64(1, 42)
	e.Int64(2, -7)
	e.Bool(3, true)
	e.Fixed64(4, 0xdeadbeefcafe)
	e.BytesField(6, []byte{1, 2, 3})
	e.String(7, "hello")
	e.Message(8, func(n *Encoder) {
		n.Uint64(1, 9)
		n.String(2, "nested")
	})
	for _, v := range []uint64{5, 6, 7} {
		e.Uint64(9, v)
	}

	var got allTypes
	if err := Unmarshal(e.Bytes(), &got); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.U != 42 || got.I != -7 || !got.B || got.F != 0xdeadbeefcafe {
		t.Errorf("numeric fields wrong: %d %d %v %x", got.U, got.I, got.B, got.F)
	}
	if !bytes.Equal(got.By, []byte{1, 2, 3}) || got.S != "hello" {
		t.Errorf("bytes/string wrong: %v %q", got.By, got.S)
	}
	if got.N != (nested{9, "nested"}) {
		t.Errorf("nested wrong: %+v", got.N)
	}
	if len(got.Rep) != 3 || got.Rep[0] != 5 || got.Rep[2] != 7 {
		t.Errorf("repeated wrong: %v", got.Rep)
	}
	if !bytes.Equal(Marshal(&got), e.Bytes()) {
		t.Errorf("Marshal does not write what the Encoder wrote")
	}
}

func TestDecoderUnknownFieldsSkipped(t *testing.T) {
	// A message that only declares field 2 must still traverse field 1.
	var e Encoder
	e.String(1, "ignored")
	e.Uint64(2, 11)
	var got struct {
		V uint64 `img:"2"`
	}
	if err := Unmarshal(e.Bytes(), &got); err != nil || got.V != 11 {
		t.Fatalf("got %d, err %v", got.V, err)
	}
}

type bytesField struct {
	B []byte `img:"1"`
}

func TestDecoderTruncatedMessage(t *testing.T) {
	var e Encoder
	e.BytesField(1, bytes.Repeat([]byte{7}, 100))
	b := e.Bytes()
	err := Unmarshal(b[:len(b)-1], &bytesField{})
	var fe *FieldError
	if !errors.As(err, &fe) || !errors.Is(err, ErrTruncated) {
		t.Fatalf("want FieldError{ErrTruncated}, got %v", err)
	}
	if fe.Field != 1 {
		t.Errorf("field = %d, want 1", fe.Field)
	}
}

func TestDecoderWrongType(t *testing.T) {
	var e Encoder
	e.Uint64(1, 5)
	if err := Unmarshal(e.Bytes(), &bytesField{}); err == nil {
		t.Fatal("want error reading varint as bytes")
	}
}

func TestDecoderBadWireType(t *testing.T) {
	// Tag with wire type 5 (unused).
	b := AppendUvarint(nil, 1<<3|5)
	if err := Unmarshal(b, &bytesField{}); !errors.Is(err, ErrBadWireType) {
		t.Fatalf("want ErrBadWireType, got %v", err)
	}
}

// scalars is a message of one field of each scalar kind.
type scalars struct {
	U uint64 `img:"1"`
	I int64  `img:"2,zigzag"`
	S string `img:"3"`
	B []byte `img:"4"`
}

func TestEncoderRoundTripProperty(t *testing.T) {
	f := func(u uint64, i int64, s string, raw []byte) bool {
		var e Encoder
		e.Uint64(1, u)
		e.Int64(2, i)
		e.String(3, s)
		e.BytesField(4, raw)
		var got scalars
		err := Unmarshal(e.Bytes(), &got)
		return err == nil && got.U == u && got.I == i && got.S == s && bytes.Equal(got.B, raw)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeSmallMessage(b *testing.B) {
	payload := bytes.Repeat([]byte{0xab}, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Encoder
		e.Uint64(1, uint64(i))
		e.Int64(2, -int64(i))
		e.BytesField(3, payload)
		_ = e.Bytes()
	}
}

func BenchmarkDecodeSmallMessage(b *testing.B) {
	var e Encoder
	e.Uint64(1, 123456)
	e.Int64(2, -98765)
	e.BytesField(4, bytes.Repeat([]byte{0xab}, 64))
	buf := e.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var got scalars
		_ = Unmarshal(buf, &got)
	}
}
