package cluster

import "testing"

// MalformedStreams exposes the malformed-transfer corpus to the external
// test package, so the receiver-level test drives the same cases as the
// parser-level one.
func MalformedStreams(t testing.TB, blob []byte) [][]byte {
	var out [][]byte
	for _, tc := range malformedStreams(t, blob) {
		out = append(out, tc.payload)
	}
	return out
}

// DisabledStageAllocs reports how many heap allocations one stage() costs
// a migration with no registry attached.
func DisabledStageAllocs() float64 {
	m := &migration{}
	n := 0
	return testing.AllocsPerRun(100, func() {
		_ = m.stage("criu.dump", func() error { n++; return nil })
	})
}
