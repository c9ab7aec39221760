// Package imgprototest is the reference for imgproto's word-plane wire
// form (CodecFlateWords; docs/transport.md, "Word planes"), for tests that
// must hand-build such a payload: a byte at a time, sharing no code and no
// constant with the codec it is compared against.
package imgprototest

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"math/bits"
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

// Diff returns raw with each whole little-endian 64-bit word less the one
// before it (the first less prev), a byte at a time with a borrow; the
// len(raw)%8 bytes that make up no whole word stay as they are.
func Diff(raw []byte, prev uint64) []byte {
	out := bytes.Clone(raw)
	before := binary.LittleEndian.AppendUint64(nil, prev)
	for i := 0; i+8 <= len(raw); i += 8 {
		borrow := 0
		for j := 0; j < 8; j++ {
			d := int(raw[i+j]) - int(before[j]) - borrow
			out[i+j], borrow = byte(d), 0
			if d < 0 {
				borrow = 1
			}
		}
		before = raw[i : i+8]
	}
	return out
}

// Lanes cuts raw's whole words into blocks of 4096 and returns the lane
// map, the difference map and the body they describe. Block b stores
// Diff(raw, 0)'s words, and sets bit b%8 of difference-map byte b/8, when
// they leave more lanes all zero than its own words; its lane-map byte
// has bit j set when byte j of any word it stores is non-zero, or set in
// force. The body is, for each lane in turn, its mapped blocks, each the
// block's byte j of every stored word, then raw's len(raw)%8 trailing
// bytes. With force zero the maps are the canonical ones the codec emits.
func Lanes(raw []byte, force byte) (lanemap, deltamap, body []byte) {
	n := len(raw) / 8
	stored := bytes.Clone(raw[:8*n])
	diffs := Diff(stored, 0)
	nblk := (n + laneBlock - 1) / laneBlock
	deltamap = make([]byte, (nblk+7)/8)
	for b := 0; b < nblk; b++ {
		from, to := 8*b*laneBlock, min(8*(b+1)*laneBlock, 8*n)
		occupied := lanesOf(stored[from:to])
		if d := lanesOf(diffs[from:to]); bits.OnesCount8(d) < bits.OnesCount8(occupied) {
			occupied = d
			copy(stored[from:to], diffs[from:to])
			deltamap[b/8] |= 1 << (b % 8)
		}
		lanemap = append(lanemap, occupied|force)
	}
	planes := Planes(stored)
	for j := 0; j < 8; j++ {
		for b, occupied := range lanemap {
			if occupied>>j&1 != 0 {
				body = append(body, planes[j*n+b*laneBlock:j*n+min((b+1)*laneBlock, n)]...)
			}
		}
	}
	return lanemap, deltamap, append(body, raw[8*n:]...)
}

// lanesOf returns the byte whose bit j is set when byte j of any word of
// words is non-zero.
func lanesOf(words []byte) (occupied byte) {
	for i, c := range words {
		if c != 0 {
			occupied |= 1 << (i % 8)
		}
	}
	return occupied
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

// FlateWords returns a CodecFlateWords payload for raw: Lanes' lane map
// under force — zero for the canonical payload — and its difference map,
// followed by the DEFLATE stream of its body.
func FlateWords(raw []byte, force byte) []byte {
	lanemap, deltamap, body := Lanes(raw, force)
	return append(append(lanemap, deltamap...), Deflate(body)...)
}
