package cluster_test

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/mem"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/stackmap"
)

// migrateOnce builds a fresh source pair, runs the program to the usual
// migration point, and migrates with the given options, returning the
// result and the restored-but-not-yet-run process's memory fingerprint.
func migrateOnce(t *testing.T, pair *compiler.Pair, meta *stackmap.Metadata, opts cluster.MigrateOpts) (*cluster.MigrationResult, []byte, string) {
	t.Helper()
	xeon := cluster.NewNode(cluster.XeonSpec)
	pi := cluster.NewNode(cluster.PiSpec)
	xeon.Install("work", pair)
	pi.Install("work", pair)
	p, err := xeon.Start("work")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xeon.K.RunBudget(p, 200_000); err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Migrate(xeon, pi, p, meta, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := pageFingerprint(res.Proc.AS)
	if err := pi.K.Run(res.Proc); err != nil {
		t.Fatal(err)
	}
	return res, snap, p.ConsoleString() + res.Proc.ConsoleString()
}

func pageFingerprint(as *mem.AddressSpace) []byte {
	idxs := as.PopulatedPages()
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	var buf bytes.Buffer
	for _, idx := range idxs {
		var hdr [8]byte
		binary.BigEndian.PutUint64(hdr[:], idx)
		buf.Write(hdr[:])
		data, _ := as.PageData(idx)
		buf.Write(data)
	}
	return buf.Bytes()
}

// TestStreamRestoreMigration: the streamed pipeline must produce the
// identical program state and output as the classic transfer, while its
// modeled downtime drops the shorter of copy/restore from the sum.
func TestStreamRestoreMigration(t *testing.T) {
	pair, err := compiler.Compile(workSrc)
	if err != nil {
		t.Fatal(err)
	}
	ref := cluster.NewNode(cluster.XeonSpec)
	ref.Install("work", pair)
	want := nativeOut(t, ref)

	plain, plainSnap, plainOut := migrateOnce(t, pair, pair.Meta, cluster.MigrateOpts{Codec: criu.CodecFlate})
	streamed, streamSnap, streamOut := migrateOnce(t, pair, pair.Meta, cluster.MigrateOpts{Codec: criu.CodecFlate, StreamRestore: true})

	if streamOut != want {
		t.Errorf("streamed output %q, want %q", streamOut, want)
	}
	if plainOut != want {
		t.Errorf("plain output %q, want %q", plainOut, want)
	}
	if !bytes.Equal(streamSnap, plainSnap) {
		t.Error("streamed restore landed a different memory image than the classic transfer")
	}

	sb, pb := streamed.Breakdown, plain.Breakdown
	over := cluster.OverlappedCopyRestore(sb.Copy, sb.Restore)
	if sb.Downtime != sb.Checkpoint+sb.Recode+over {
		t.Errorf("streamed downtime %v != checkpoint %v + recode %v + max(copy, restore) %v",
			sb.Downtime, sb.Checkpoint, sb.Recode, over)
	}
	if sb.Downtime >= pb.Downtime {
		t.Errorf("streamed downtime %v did not beat serial %v", sb.Downtime, pb.Downtime)
	}
	if sb.StreamSegments < 1 || sb.StreamBatches < 1 {
		t.Errorf("pipeline stats: segments=%d batches=%d, want both >= 1", sb.StreamSegments, sb.StreamBatches)
	}
	if pb.StreamSegments != 0 || pb.StreamBatches != 0 {
		t.Errorf("non-streamed migration reports stream stats: %d/%d", pb.StreamSegments, pb.StreamBatches)
	}
}

// TestStreamRestoreSpanTree: the downtime span's children must still sum
// exactly to its duration, with copy and restore grouped under the
// overlapped xfer_restore stage.
func TestStreamRestoreSpanTree(t *testing.T) {
	pair, err := compiler.Compile(workSrc)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	res, _, _ := migrateOnce(t, pair, pair.Meta, cluster.MigrateOpts{
		Codec: criu.CodecFlate, StreamRestore: true, Obs: reg,
	})
	bd := res.Breakdown
	rep := reg.Report()
	dt, ok := rep.Span("downtime")
	if !ok {
		t.Fatal("no downtime span")
	}
	if dt.Dur() != bd.Downtime {
		t.Errorf("downtime span %v != breakdown %v", dt.Dur(), bd.Downtime)
	}
	var sum time.Duration
	var xfer *obs.SpanEvent
	for _, c := range rep.Children(dt.ID) {
		sum += c.Dur()
		if c.Name == "xfer_restore" {
			ev := c
			xfer = &ev
		}
	}
	if sum != dt.Dur() {
		t.Errorf("downtime children sum %v != %v", sum, dt.Dur())
	}
	if xfer == nil {
		t.Fatal("no xfer_restore child under downtime")
	}
	names := map[string]time.Duration{}
	for _, c := range rep.Children(xfer.ID) {
		names[c.Name] = c.Dur()
	}
	if names["copy"] != bd.Copy || names["restore"] != bd.Restore {
		t.Errorf("xfer_restore children %v, want copy=%v restore=%v", names, bd.Copy, bd.Restore)
	}
	if xfer.Dur() != cluster.OverlappedCopyRestore(bd.Copy, bd.Restore) {
		t.Errorf("xfer_restore span %v != max(copy, restore)", xfer.Dur())
	}
	// The criu-level restore pipeline tree rides along in the same
	// registry.
	if _, ok := rep.Span("restore"); !ok {
		t.Error("no criu restore span recorded")
	}
}

// TestStreamRestoreOptionValidation: the option combinations the
// pipeline cannot serve must be refused up front.
func TestStreamRestoreOptionValidation(t *testing.T) {
	pair, err := compiler.Compile(workSrc)
	if err != nil {
		t.Fatal(err)
	}
	xeon := cluster.NewNode(cluster.XeonSpec)
	pi := cluster.NewNode(cluster.PiSpec)
	xeon.Install("work", pair)
	pi.Install("work", pair)
	p, err := xeon.Start("work")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xeon.K.RunBudget(p, 200_000); err != nil {
		t.Fatal(err)
	}
	bad := []cluster.MigrateOpts{
		{StreamRestore: true, Codec: criu.CodecFlate, Lazy: true}, // lazy leaves pages behind
		{StreamRestore: true, Codec: criu.CodecFlate, PreCopy: &cluster.PreCopyOpts{}},
	}
	for i, opts := range bad {
		if _, err := cluster.Migrate(xeon, pi, p, pair.Meta, opts); err == nil {
			t.Errorf("case %d: invalid streamed options accepted: %+v", i, opts)
		}
	}
}
