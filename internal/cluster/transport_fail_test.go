package cluster_test

import (
	"encoding/binary"
	"net"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/monitor"
	"github.com/dapper-sim/dapper/internal/obs"
)

func waitForErrors(t *testing.T, r *cluster.ImageReceiver, want uint64) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for r.Errors() < want {
		if time.Now().After(deadline) {
			t.Fatalf("receiver Errors = %d, want %d", r.Errors(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestImageReceiverMalformedPayloads feeds the receiver a truncated
// header, a truncated body, and an oversized length; each must be counted
// as an error, none may produce a directory, and a subsequent well-formed
// transfer must still succeed.
func TestImageReceiverMalformedPayloads(t *testing.T) {
	recvr, err := cluster.ListenImages("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recvr.Close()

	send := func(payload []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", recvr.Addr())
		if err != nil {
			t.Fatal(err)
		}
		conn.Write(payload)
		conn.Close()
	}

	streamHdr := func(rawTotal uint64) []byte {
		b := append([]byte("DIB3"), 0, 0, 0, 0)
		return binary.BigEndian.AppendUint64(b, rawTotal)
	}

	// Truncated header: the connection dies inside the magic.
	send([]byte("DI"))
	waitForErrors(t, recvr, 1)

	// Truncated body: the segment header promises more bytes than arrive.
	seg := binary.BigEndian.AppendUint32(nil, 4096)
	seg = binary.BigEndian.AppendUint32(seg, 4096)
	seg = append(seg, 0)
	send(append(append(streamHdr(4096), seg...), []byte("short")...))
	waitForErrors(t, recvr, 2)

	// Oversized image: a total over the 1 GiB limit must be rejected
	// without attempting the allocation.
	send(streamHdr(8 << 30))
	waitForErrors(t, recvr, 3)

	if d := recvr.Take(); d != nil {
		t.Fatalf("malformed payloads produced a directory: %v", d.Names())
	}

	// The receiver must still be healthy for a real transfer.
	dir := criu.NewImageDir()
	dir.Put("inventory.img", []byte{1, 2, 3, 4})
	if _, _, err := cluster.SendImagesOpts(recvr.Addr(), dir, cluster.SendOpts{}); err != nil {
		t.Fatal(err)
	}
	var got *criu.ImageDir
	deadline := time.Now().Add(2 * time.Second)
	for got == nil && time.Now().Before(deadline) {
		got = recvr.Take()
		time.Sleep(time.Millisecond)
	}
	if got == nil {
		t.Fatal("well-formed transfer after malformed ones never arrived")
	}
	if recvr.Errors() != 3 {
		t.Errorf("Errors = %d, want 3", recvr.Errors())
	}
}

func TestImageReceiverCloseIdempotent(t *testing.T) {
	recvr, err := cluster.ListenImages("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := recvr.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if err := recvr.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// TestMigrateReapsSource: a non-lazy migration must not leak the paused
// source process — it is reaped (exited, PID released) while its console
// output stays readable.
func TestMigrateReapsSource(t *testing.T) {
	xeon, pi, pair := setup(t)
	p, err := xeon.Start("work")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xeon.K.RunBudget(p, 200_000); err != nil {
		t.Fatal(err)
	}
	preConsole := p.ConsoleString()
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != nil {
		t.Error("non-lazy migration kept a page source")
	}
	if !p.Exited {
		t.Error("source process still alive (leaked SIGSTOPed)")
	}
	if p.Stopped {
		t.Error("reaped source still marked stopped")
	}
	if p.ConsoleString() != preConsole {
		t.Error("reaping lost the source's console output")
	}
	if err := res.Close(); err != nil {
		t.Errorf("close of non-lazy result: %v", err)
	}
	if err := pi.K.Run(res.Proc); err != nil {
		t.Fatal(err)
	}
}

// heapSrc builds a program with a large enough heap that post-copy leaves
// ~100+ pages behind on the source.
const heapSrc = `
func put(p *int, i int) { p[i] = i * 7 + 1; }
func get(p *int, i int) int { return p[i]; }
func main() {
	var p *int;
	var i int;
	var s int;
	p = alloc(8 * 60000);
	for i = 0; i < 60000; i = i + 1 { put(p, i); }
	for i = 0; i < 60000; i = i + 1 { s = s + get(p, i); }
	printi(s);
	print("\n");
}`

// TestLazyMigrationTCPWithFaults is the acceptance test for the resilient
// page transport: a post-copy migration whose pages travel over a real TCP
// page server with >=10% injected fetch failures plus connection drops
// must still complete with byte-identical output, and the breakdown's lazy
// counters must reflect the page server's actual request stream.
func TestLazyMigrationTCPWithFaults(t *testing.T) {
	pair, err := compiler.Compile(heapSrc)
	if err != nil {
		t.Fatal(err)
	}
	ref := cluster.NewNode(cluster.XeonSpec)
	ref.Install("heapy", pair)
	refProc, err := ref.Start("heapy")
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.K.Run(refProc); err != nil {
		t.Fatal(err)
	}
	want := refProc.ConsoleString()
	budget := refProc.VCycles * 2 / 5

	xeon := cluster.NewNode(cluster.XeonSpec)
	pi := cluster.NewNode(cluster.PiSpec)
	xeon.Install("heapy", pair)
	pi.Install("heapy", pair)
	p, err := xeon.Start("heapy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xeon.K.RunBudget(p, budget); err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{
		Lazy:    true,
		LazyTCP: true,
		Faults:  &criu.FaultSpec{Seed: 1, FailRate: 0.25, DropRate: 0.05},
		Obs:     reg,
		PageClient: &criu.PageClientOpts{
			FetchTimeout: time.Second,
			MaxRetries:   14, RetryBackoff: time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()

	if err := pi.K.Run(res.Proc); err != nil {
		t.Fatalf("post-copy run under injected faults: %v", err)
	}
	got := p.ConsoleString() + res.Proc.ConsoleString()
	if got != want {
		t.Errorf("faulty-transport migration output %q, want %q", got, want)
	}

	res.FinalizeLazyStats()
	srvStats := res.PageStats()
	if res.Breakdown.LazyFetches != srvStats.Requests {
		t.Errorf("Breakdown.LazyFetches = %d, want page-server Requests %d",
			res.Breakdown.LazyFetches, srvStats.Requests)
	}
	if res.Breakdown.LazyBytes != srvStats.BytesSent {
		t.Errorf("Breakdown.LazyBytes = %d, want page-server BytesSent %d",
			res.Breakdown.LazyBytes, srvStats.BytesSent)
	}
	if srvStats.Requests == 0 {
		t.Fatal("no pages were served over TCP")
	}
	// The injected fault volume must be at least 10% of the request
	// stream, or the test is not demonstrating resilience.
	failures, drops := reg.Counter("faults.failures").Value(), reg.Counter("faults.drops").Value()
	if injected := failures + drops; injected*10 < srvStats.Requests {
		t.Errorf("injected faults %d (< 10%% of %d requests): fault rate too low to be meaningful",
			injected, srvStats.Requests)
	}
	if srvStats.Errors != failures {
		t.Errorf("server error frames %d != injected fetch failures %d",
			srvStats.Errors, failures)
	}
	cst := res.PageClientStats()
	if cst.Retries == 0 {
		t.Errorf("faults injected but client never retried: %+v", cst)
	}
	t.Logf("served %d requests (%d errors, %d drops); client: %d fetches, %d retries, %d reconnects, %d timeouts",
		srvStats.Requests, srvStats.Errors, drops,
		cst.Fetches, cst.Retries, cst.Reconnects, cst.Timeouts)

	// Close reaps the source.
	if err := res.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	if !p.Exited {
		t.Error("lazy source not reaped by Close")
	}
}

// TestLazyTCPSetupFailureReapsRestored: when the page transport cannot be
// set up after the restore — here a listener that kills every hello ack —
// Migrate returns no result, so it must reap the restored process itself;
// before the fix each failed attempt leaked one process on the
// destination kernel. The paused source is untouched: it resumes locally
// and finishes with the native output.
func TestLazyTCPSetupFailureReapsRestored(t *testing.T) {
	xeon, pi, pair := setup(t)
	ref := cluster.NewNode(cluster.XeonSpec)
	ref.Install("work", pair)
	want := nativeOut(t, ref)

	p, err := xeon.Start("work")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xeon.K.RunBudget(p, 200_000); err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{
		Lazy: true, LazyTCP: true,
		Faults: &criu.FaultSpec{Seed: 1, DropRate: 1},
	})
	if err == nil {
		res.Close()
		t.Fatal("migration succeeded over a listener that kills every hello")
	}
	if n := pi.K.Live(); n != 0 {
		t.Errorf("destination kernel holds %d processes after the failed migration, want 0", n)
	}
	if p.Exited {
		t.Fatal("failed migration reaped the source")
	}
	if err := monitor.New(xeon.K, p, pair.Meta).ResumeLocal(); err != nil {
		t.Fatalf("resume the source after the failed migration: %v", err)
	}
	if err := xeon.K.Run(p); err != nil {
		t.Fatal(err)
	}
	if got := p.ConsoleString(); got != want {
		t.Errorf("resumed source printed %q, want %q", got, want)
	}
}

// TestLazyFaultErrorSurfaces: if the transport is torn down while lazy
// pages are still missing, the destination's next fault must fail with an
// identifiable transport error, not a silent zero page or a hang.
func TestLazyFaultErrorSurfaces(t *testing.T) {
	pair, err := compiler.Compile(heapSrc)
	if err != nil {
		t.Fatal(err)
	}
	ref := cluster.NewNode(cluster.XeonSpec)
	ref.Install("heapy", pair)
	refProc, err := ref.Start("heapy")
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.K.Run(refProc); err != nil {
		t.Fatal(err)
	}
	budget := refProc.VCycles * 2 / 5

	xeon := cluster.NewNode(cluster.XeonSpec)
	pi := cluster.NewNode(cluster.PiSpec)
	xeon.Install("heapy", pair)
	pi.Install("heapy", pair)
	p, err := xeon.Start("heapy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xeon.K.RunBudget(p, budget); err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{
		Lazy: true, LazyTCP: true,
		PageClient: &criu.PageClientOpts{MaxRetries: 1, RetryBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Kill the transport before the destination has pulled its pages.
	if err := res.Close(); err != nil {
		t.Fatal(err)
	}
	err = pi.K.Run(res.Proc)
	if err == nil {
		t.Fatal("destination ran to completion with no page source")
	}
	if !kernel.IsLazyFaultError(err) {
		t.Errorf("error %v not identified as a lazy-fault transport error", err)
	}
}

// TestLazyFetchFailureEndsGuest pins the premise that bounds the page
// client by MaxRetries alone: a fetch that fails every attempt fails the
// faulting process outright, so it never fetches again and nothing can
// redial the page server past one fault's attempts.
func TestLazyFetchFailureEndsGuest(t *testing.T) {
	pair, err := compiler.Compile(heapSrc)
	if err != nil {
		t.Fatal(err)
	}
	xeon := cluster.NewNode(cluster.XeonSpec)
	pi := cluster.NewNode(cluster.PiSpec)
	xeon.Install("heapy", pair)
	pi.Install("heapy", pair)
	p, err := xeon.Start("heapy")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := xeon.K.RunBudget(p, 200_000); err != nil {
		t.Fatal(err)
	}
	res, err := cluster.Migrate(xeon, pi, p, pair.Meta, cluster.MigrateOpts{
		Lazy: true, LazyTCP: true,
		Faults:     &criu.FaultSpec{Seed: 1, FailRate: 1},
		PageClient: &criu.PageClientOpts{MaxRetries: 2, RetryBackoff: time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pi.K.Run(res.Proc); !kernel.IsLazyFaultError(err) {
		t.Fatalf("run = %v, want a lazy-fault error", err)
	}
	if !res.Proc.Exited {
		t.Error("the faulting process outlived its failed fetch")
	}
	if got := res.PageStats().Requests; got != 3 {
		t.Errorf("page server saw %d requests, want 3 (one fault, MaxRetries 2)", got)
	}
	if err := res.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := pi.K.Live(); n != 0 {
		t.Errorf("destination holds %d processes after Rollback, want 0", n)
	}
}
