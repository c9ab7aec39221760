// Package imgprototest is the reference for imgproto's word-plane wire
// form (CodecFlateWords; docs/transport.md, "Word planes"), for tests that
// must hand-build such a payload: a byte at a time, sharing no code and no
// constant with the codec it is compared against.
package imgprototest

import (
	"bytes"
	"compress/flate"
)

// laneBlock is the words one lane-map byte covers — the wire format's
// number, repeated here so that changing the codec's fails its tests.
const laneBlock = 4096

// Planes returns raw's eight full byte planes — byte 0 of every
// little-endian 64-bit word, then byte 1 of every word, and so on — and
// last the len(raw)%8 bytes that make up no whole word.
func Planes(raw []byte) []byte {
	n := len(raw) / 8
	out := make([]byte, len(raw))
	for i := 0; i < n; i++ {
		for j := 0; j < 8; j++ {
			out[j*n+i] = raw[8*i+j]
		}
	}
	copy(out[8*n:], raw[8*n:])
	return out
}

// Lanes cuts raw's whole words into blocks of 4096 and returns the lane
// map — one byte per block, bit j set when byte j of any word in the
// block is non-zero, or set in force — and the body the map describes:
// for each lane in turn its mapped blocks, each the block's byte j of
// every word, then raw's len(raw)%8 trailing bytes. With force zero the
// map is the canonical one the codec emits.
func Lanes(raw []byte, force byte) (lanemap, body []byte) {
	n := len(raw) / 8
	body = make([]byte, 0, len(raw))
	for off := 0; off < n; off += laneBlock {
		occupied := force
		for i := off; i < n && i < off+laneBlock; i++ {
			for j := 0; j < 8; j++ {
				if raw[8*i+j] != 0 {
					occupied |= 1 << j
				}
			}
		}
		lanemap = append(lanemap, occupied)
	}
	for j := 0; j < 8; j++ {
		for b, occupied := range lanemap {
			if occupied>>j&1 == 0 {
				continue
			}
			for i := b * laneBlock; i < n && i < (b+1)*laneBlock; i++ {
				body = append(body, raw[8*i+j])
			}
		}
	}
	return lanemap, append(body, raw[8*n:]...)
}

// Deflate is level-1 DEFLATE of raw by a flate.Writer nothing has used.
func Deflate(raw []byte) []byte {
	var out bytes.Buffer
	// NewWriter fails only on a level outside flate's range, and writes to
	// a bytes.Buffer do not fail.
	zw, _ := flate.NewWriter(&out, flate.BestSpeed)
	_, _ = zw.Write(raw)
	_ = zw.Close()
	return out.Bytes()
}

// FlateWords returns a CodecFlateWords payload for raw: Lanes' map under
// force — zero for the canonical payload — followed by the DEFLATE stream
// of its body.
func FlateWords(raw []byte, force byte) []byte {
	lanemap, body := Lanes(raw, force)
	return append(lanemap, Deflate(body)...)
}
