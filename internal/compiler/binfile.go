package compiler

import (
	"fmt"

	"github.com/dapper-sim/dapper/internal/imgproto"
)

// delfMagic identifies a serialized DELF binary.
const delfMagic = "DELF1\n"

// MarshalBinary serializes a Binary (including its stack-map metadata) to
// the DELF on-disk format: the magic, then the binary as an imgproto
// message (its struct tags are the format).
func MarshalBinary(b *Binary) []byte {
	return append([]byte(delfMagic), imgproto.Marshal(b)...)
}

// UnmarshalBinary parses a DELF blob.
func UnmarshalBinary(blob []byte) (*Binary, error) {
	if len(blob) < len(delfMagic) || string(blob[:len(delfMagic)]) != delfMagic {
		return nil, fmt.Errorf("compiler: not a DELF binary")
	}
	b := &Binary{}
	if err := imgproto.Unmarshal(blob[len(delfMagic):], b); err != nil {
		return nil, fmt.Errorf("compiler: parse DELF: %w", err)
	}
	if b.Meta == nil {
		return nil, fmt.Errorf("compiler: DELF missing metadata section")
	}
	b.Meta.Index()
	return b, nil
}
