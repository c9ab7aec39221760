package cluster

import (
	"testing"

	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/imgcheck"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

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

// Transfer is the in-process hand-off a vanilla Migrate ships its images
// through, without a codec: the directory returned shares dir's bytes.
func Transfer(dir *criu.ImageDir) (*criu.ImageDir, error) {
	got, _, _, err := transfer(dir, criu.CodecNone, nil)
	return got, err
}

// PreCopyKeepingSource runs Migrate's pre-copy composition but leaves the
// source paused where Migrate reaps it, so a test can resume it as a
// caller that gave up on the migration does. It also returns the
// destination's chain flattened once more: the pages it restored from,
// before the recode.
func PreCopyKeepingSource(src, dst *Node, p *kernel.Process, meta *stackmap.Metadata, opts MigrateOpts) (*MigrationResult, *criu.ImageDir, error) {
	m := &migration{src: src, dst: dst, p: p, opts: opts, mon: monitor.New(src.K, p, meta), recodeNode: fasterNode(src, dst)}
	res, err := m.preCopy()
	if err != nil {
		return nil, nil, err
	}
	flat, err := m.chain.Flatten()
	return res, flat, err
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

// PreCopyForgettingChain runs Migrate's pre-copy composition, and its
// clean-up of a failed one, with a destination that loses — while the
// source runs between rounds — every link it had received: the next
// round's link arrives at an empty chain. Nothing a source can dump makes
// a link fail to fold, so this is how a test gets a refused round.
func PreCopyForgettingChain(src, dst *Node, p *kernel.Process, meta *stackmap.Metadata, opts MigrateOpts) error {
	pc := *opts.PreCopy
	opts.PreCopy = &pc
	m := &migration{src: src, dst: dst, p: p, opts: opts, mon: monitor.New(src.K, p, meta), recodeNode: fasterNode(src, dst)}
	pc.BetweenRounds = func(*kernel.Process, int) { m.chain = imgcheck.Chain{} }
	_, err := m.preCopy()
	if err != nil {
		p.AS.StopDirtyTracking()
	}
	return err
}
