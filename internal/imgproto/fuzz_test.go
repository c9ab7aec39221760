package imgproto

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/imgproto/imgprototest"
)

// FuzzUvarint checks the varint decoder against arbitrary byte strings:
// it must never panic, must reject >64-bit values and truncation with
// the named sentinels, and every successful decode must re-encode to the
// exact bytes it consumed (canonical round trip).
func FuzzUvarint(f *testing.F) {
	f.Add([]byte{0x00})
	f.Add([]byte{0x7f})
	f.Add([]byte{0x80, 0x01})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // max uint64
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}) // overflows
	f.Add([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00})
	f.Add([]byte{0x80}) // truncated
	f.Fuzz(func(t *testing.T, b []byte) {
		v, n, err := Uvarint(b)
		if err != nil {
			if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrOverflow) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		if n <= 0 || n > len(b) || n > 10 {
			t.Fatalf("bad consumed length %d for %x", n, b)
		}
		re := AppendUvarint(nil, v)
		// Decoding is permissive about non-canonical (zero-padded)
		// encodings, so compare by re-decoding rather than raw bytes.
		v2, n2, err := Uvarint(re)
		if err != nil || v2 != v {
			t.Fatalf("re-encode of %d failed: %v (got %d)", v, err, v2)
		}
		if n2 != len(re) {
			t.Fatalf("re-encode of %d left %d trailing bytes", v, len(re)-n2)
		}
	})
}

// fuzzMessage builds a message exercising every wire type, including a
// nested message, from fuzzer-chosen values.
func fuzzMessage(u1, fx uint64, s []byte, nested uint64) []byte {
	var e Encoder
	e.Uint64(1, u1)
	e.Fixed64(2, fx)
	e.BytesField(3, s)
	e.Message(4, func(n *Encoder) {
		n.Uint64(1, nested)
		n.BytesField(2, s)
	})
	e.Int64(5, UnZigZag(u1))
	return e.Bytes()
}

// fuzzMsg is what fuzzMessage encodes.
type fuzzMsg struct {
	U1 uint64 `img:"1"`
	Fx uint64 `img:"2,fixed"`
	S  []byte `img:"3"`
	N  struct {
		U uint64 `img:"1"`
		S []byte `img:"2"`
	} `img:"4"`
	I int64 `img:"5,zigzag"`
}

// FuzzDecoder drives Unmarshal over both well-formed messages (which must
// round-trip every field value, and re-encode to the bytes the Encoder
// wrote) and arbitrary mutations (which must fail cleanly, never panic or
// over-read).
func FuzzDecoder(f *testing.F) {
	f.Add(uint64(0), uint64(0), []byte(nil), uint64(0), []byte(nil))
	f.Add(^uint64(0), uint64(1), []byte("payload"), uint64(42), []byte{0xff, 0xff})
	f.Add(uint64(300), ^uint64(0), bytes.Repeat([]byte{0x80}, 16), uint64(7), []byte{0x0b})
	f.Fuzz(func(t *testing.T, u1, fx uint64, s []byte, nested uint64, garbage []byte) {
		msg := fuzzMessage(u1, fx, s, nested)
		var got fuzzMsg
		if err := Unmarshal(msg, &got); err != nil {
			t.Fatalf("well-formed message failed to decode: %v", err)
		}
		if got.U1 != u1 || got.Fx != fx || got.N.U != nested || got.I != UnZigZag(u1) {
			t.Fatal("scalar fields did not round-trip")
		}
		if !bytes.Equal(got.S, s) || !bytes.Equal(got.N.S, s) {
			t.Fatal("bytes fields did not round-trip")
		}
		if !bytes.Equal(Marshal(&got), msg) {
			t.Fatal("Marshal does not write what the Encoder wrote")
		}

		// Arbitrary corruption: truncations and garbage must error (or
		// decode as some other valid message) without panicking.
		for cut := 0; cut < len(msg); cut += 1 + len(msg)/8 {
			_ = Unmarshal(msg[:cut], &fuzzMsg{})
		}
		_ = Unmarshal(garbage, &fuzzMsg{})
		_ = Unmarshal(append(append([]byte(nil), garbage...), msg...), &fuzzMsg{})
	})
}

// FuzzCodecDecompress drives the one decoder of untrusted compressed
// bytes with an arbitrary codec byte, claimed raw length and payload: it
// returns a named error or exactly rawLen bytes, never panics, and never
// allocates past the claim — which the harness caps at 8 MiB, as
// readImageDirFrom and readPageResponse cap it before they call. The payload
// then serves as raw data in its own right: whatever form Compress picks
// for it, and both flate forms encoded by hand — the word-plane one with
// its canonical lane map and with bits the codec byte picks forced on over
// zeros — must decode back to it byte for byte and refuse a claim one
// byte short.
func FuzzCodecDecompress(f *testing.F) {
	const maxRaw = 8 << 20
	// The fifth seed is two blocks of words, the second short and ending
	// in zeros; the sixth one block of differences; the seventh two, the
	// second its first's last word repeated, so its lane-map byte is 0.
	stride := stridePages(8)
	raws := [][]byte{nil, kvPages(8), intPages(8), floatPages(8), append(sparsePages(9), make([]byte, 3*4096+3)...),
		stride, append(bytes.Clone(stride), bytes.Repeat(stride[len(stride)-8:], 100)...)}
	for k := 1; k < 8; k++ {
		raws = append(raws, kvPages(1)[k:]) // lengths 7...1 mod 8
	}
	for _, raw := range raws {
		f.Add(uint8(CodecNone), uint32(len(raw)), raw)
		f.Add(uint8(CodecFlate), uint32(len(raw)), imgprototest.Deflate(raw))
		f.Add(uint8(CodecFlateWords), uint32(len(raw)), imgprototest.FlateWords(raw, 0))
	}
	// A few bytes of wire under the largest claim: as its lane map, one
	// too short, one naming every lane and one naming none.
	f.Add(uint8(CodecFlateWords), uint32(maxRaw), imgprototest.Deflate(kvPages(1))[:200])
	f.Add(uint8(CodecFlateWords), uint32(maxRaw), bytes.Repeat([]byte{0xff}, 300))
	f.Add(uint8(CodecFlateWords), uint32(maxRaw), make([]byte, 300))
	f.Add(uint8(CodecFlateWords+1), uint32(0), []byte(nil))
	f.Fuzz(func(t *testing.T, codecByte uint8, rawLen uint32, wire []byte) {
		n := int(rawLen % (maxRaw + 1))
		out, err := Codec(codecByte).Decompress(wire, n)
		switch {
		case err != nil && !strings.HasPrefix(err.Error(), "imgproto: "):
			t.Fatalf("unnamed error: %v", err)
		case err == nil && len(out) != n:
			t.Fatalf("decoded %d bytes under a header claiming %d", len(out), n)
		case err == nil && !Codec(codecByte).Valid():
			t.Fatalf("codec byte %d decoded", codecByte)
		}

		raw := wire
		chosen, used, err := CodecFlate.Compress(raw)
		if err != nil {
			t.Fatal(err)
		}
		for _, enc := range []struct {
			codec Codec
			wire  []byte
		}{
			{used, chosen},
			{CodecFlate, imgprototest.Deflate(raw)},
			{CodecFlateWords, imgprototest.FlateWords(raw, 0)},
			{CodecFlateWords, imgprototest.FlateWords(raw, codecByte)},
		} {
			back, err := enc.codec.Decompress(enc.wire, len(raw))
			if err != nil || !bytes.Equal(back, raw) {
				t.Fatalf("%s: %d-byte payload did not round-trip: %v", enc.codec, len(raw), err)
			}
			// The word-plane form binds the claim through the byte count its
			// lane map describes, which a claim that unmakes the last word
			// need not change (see inflateLanes).
			if len(raw) > 0 && (enc.codec != CodecFlateWords || len(raw)%8 != 0) {
				if _, err := enc.codec.Decompress(enc.wire, len(raw)-1); err == nil {
					t.Fatalf("%s: a claim one byte short of %d was accepted", enc.codec, len(raw))
				}
			}
		}
	})
}
