package updatecheck

import "github.com/dapper-sim/dapper/internal/stackmap"

// InstStarts returns the instruction-start set pass 1's linear sweep
// derives for f, or nil if the function does not decode.
func InstStarts(b *Binary, f *stackmap.Func) []uint64 {
	fc := decodeFunc(b, f, &Report{})
	if fc == nil {
		return nil
	}
	return fc.pcs
}
