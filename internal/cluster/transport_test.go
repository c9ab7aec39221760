package cluster_test

import (
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/monitor"
)

// TestMigrationOverRealTCP performs the full migration with the image
// directory shipped through an actual socket: checkpoint on the "source
// host", SendImages, receive on the "destination host", rewrite already
// applied, restore, run — and the output must match the native run.
func TestMigrationOverRealTCP(t *testing.T) {
	pair, err := compiler.Compile(workSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Native reference.
	ref := cluster.NewNode(cluster.XeonSpec)
	ref.Install("work", pair)
	want := nativeOut(t, ref)

	xeon := cluster.NewNode(cluster.XeonSpec)
	pi := cluster.NewNode(cluster.PiSpec)
	xeon.Install("work", pair)
	pi.Install("work", pair)

	recvr, err := cluster.ListenImages("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recvr.Close()

	p, err := xeon.Start("work")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xeon.K.RunBudget(p, 200_000); err != nil {
		t.Fatal(err)
	}
	mon := monitor.New(xeon.K, p, pair.Meta)
	if err := mon.Pause(1 << 20); err != nil {
		t.Fatal(err)
	}
	dir, err := criu.Dump(p, criu.DumpOpts{})
	if err != nil {
		t.Fatal(err)
	}
	// Rewrite on the source side, then scp for real.
	if err := (crossISAFor(pi)).Rewrite(dir, coreCtx(xeon)); err != nil {
		t.Fatal(err)
	}
	_, sent, err := cluster.SendImagesOpts(recvr.Addr(), dir, cluster.SendOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if sent == 0 {
		t.Fatal("nothing sent")
	}
	got, err := recvr.TakeWait(time.Second)
	if err != nil {
		t.Fatalf("receiver never produced the directory: %v", err)
	}
	p2, err := criu.Restore(pi.K, got, pi.Binaries)
	if err != nil {
		t.Fatal(err)
	}
	if err := pi.K.Run(p2); err != nil {
		t.Fatal(err)
	}
	if out := p.ConsoleString() + p2.ConsoleString(); out != want {
		t.Errorf("TCP-shipped migration output %q, want %q", out, want)
	}
}

// Helpers bridging to the core policy types without import clutter above.
func crossISAFor(dst *cluster.Node) interface {
	Rewrite(*criu.ImageDir, *core.Context) error
} {
	return core.CrossISAPolicy{Target: dst.Spec.Arch}
}

func coreCtx(n *cluster.Node) *core.Context {
	return &core.Context{Binaries: n.Binaries}
}
