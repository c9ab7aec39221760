package cluster_test

import (
	"strings"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/obs"
)

// heapSetup compiles heapSrc (transport_fail_test.go), measures its
// native cycle count, and
// returns a fresh xeon/pi pair with a source process run to the given
// fraction (tenths) of the native run.
func heapSetup(t *testing.T, tenths uint64) (*cluster.Node, *cluster.Node, *compiler.Pair, *kernelProc) {
	t.Helper()
	pair, err := compiler.Compile(heapSrc)
	if err != nil {
		t.Fatal(err)
	}
	ref := cluster.NewNode(cluster.XeonSpec)
	ref.Install("heapy", pair)
	rp, err := ref.Start("heapy")
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.K.Run(rp); err != nil {
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
	alive, err := xeon.K.RunBudget(p, rp.VCycles*tenths/10)
	if err != nil {
		t.Fatal(err)
	}
	if !alive {
		t.Fatal("finished before the checkpoint point")
	}
	return xeon, pi, pair, &kernelProc{p: p, native: rp.VCycles, nativeOut: rp.ConsoleString()}
}

// kernelProc bundles the source process with the native run's cycle count
// (for deriving round budgets) and output.
type kernelProc struct {
	p         *kernel.Process
	native    uint64
	nativeOut string
}

// --- TakeWait (the busy-poll replacement) ---

func tinyImageDir() *criu.ImageDir {
	d := criu.NewImageDir()
	d.Put("blob.img", []byte("takewait test payload"))
	return d
}

// TestTakeWaitDelivers: a blocked TakeWait must wake promptly when an
// image arrives — channel-notified, not deadline-polled.
func TestTakeWaitDelivers(t *testing.T) {
	recv, err := cluster.ListenImages("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	go func() {
		time.Sleep(30 * time.Millisecond)
		if _, _, err := cluster.SendImagesOpts(recv.Addr(), tinyImageDir(), cluster.SendOpts{}); err != nil {
			t.Errorf("send: %v", err)
		}
	}()
	start := time.Now()
	d, err := recv.TakeWait(10 * time.Second)
	if err != nil {
		t.Fatalf("TakeWait: %v", err)
	}
	if d == nil {
		t.Fatal("TakeWait returned nil directory without error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("TakeWait took %v; the arrival notification is not waking the waiter", elapsed)
	}
}

// TestTakeWaitTimeout: with no sender, TakeWait fails at its deadline
// with a diagnosable error.
func TestTakeWaitTimeout(t *testing.T) {
	recv, err := cluster.ListenImages("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	start := time.Now()
	_, err = recv.TakeWait(50 * time.Millisecond)
	if err == nil {
		t.Fatal("TakeWait returned without an image or an error")
	}
	if !strings.Contains(err.Error(), "within") {
		t.Errorf("timeout error %q does not name the deadline", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout after %v for a 50ms deadline", elapsed)
	}
}

// TestTakeWaitClosed: closing the receiver fails blocked waiters fast
// instead of letting them run out their timeout.
func TestTakeWaitClosed(t *testing.T) {
	recv, err := cluster.ListenImages("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		recv.Close()
	}()
	start := time.Now()
	_, err = recv.TakeWait(10 * time.Second)
	if err == nil {
		t.Fatal("TakeWait succeeded on a closed receiver")
	}
	if !strings.Contains(err.Error(), "closed") {
		t.Errorf("close error %q does not say the receiver closed", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("waiter took %v to observe Close", elapsed)
	}
}

// --- downtime determinism (the accounting regression) ---

// TestPreCopyDowntimeDeterministic: downtime is computed from modeled
// phases only, so the identical migration — same program, same budget,
// same rounds, even over real TCP — must report the identical downtime
// on every run. Host wall-clock noise leaking into the sum breaks this.
func TestPreCopyDowntimeDeterministic(t *testing.T) {
	run := func() cluster.Breakdown {
		xeon, pi, pair, kp := heapSetup(t, 4)
		res, err := cluster.Migrate(xeon, pi, kp.p, pair.Meta, cluster.MigrateOpts{
			PreCopy: &cluster.PreCopyOpts{RoundBudget: kp.native/20 + 1, TCP: true},
		})
		if err != nil {
			t.Fatalf("pre-copy migrate: %v", err)
		}
		if err := pi.K.Run(res.Proc); err != nil {
			t.Fatal(err)
		}
		return res.Breakdown
	}
	a, b := run(), run()
	if a.Downtime != b.Downtime {
		t.Errorf("downtime differs across identical runs: %v vs %v", a.Downtime, b.Downtime)
	}
	if a.MigrationTime() != b.MigrationTime() {
		t.Errorf("migration time differs across identical runs: %v vs %v", a.MigrationTime(), b.MigrationTime())
	}
	if a.Downtime != a.Checkpoint+a.Recode+a.Copy+a.Restore {
		t.Errorf("downtime %v is not the sum of its modeled phases", a.Downtime)
	}
}

// --- end-to-end obs reports ---

// childSum adds up the durations of a span's direct children.
func childSum(rep *obs.Report, id uint64) time.Duration {
	var sum time.Duration
	for _, ev := range rep.Children(id) {
		sum += ev.Dur()
	}
	return sum
}

// TestMigrateLazyObsReport: a lazy TCP migration with a registry attached
// must produce the complete report the issue demands — a span tree
// covering the migration time, a populated fault-latency histogram, and
// counters that agree with PageStats and the Breakdown.
func TestMigrateLazyObsReport(t *testing.T) {
	xeon, pi, pair, kp := heapSetup(t, 4)
	reg := obs.New()
	res, err := cluster.Migrate(xeon, pi, kp.p, pair.Meta, cluster.MigrateOpts{
		Lazy: true, LazyTCP: true, Obs: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if err := pi.K.Run(res.Proc); err != nil {
		t.Fatal(err)
	}
	res.FinalizeLazyStats()
	bd := res.Breakdown
	rep := reg.Report()

	// Span tree: the root covers the whole migration and its children
	// account for at least 95% of it (here: exactly 100% by construction).
	root, ok := rep.Span("migration")
	if !ok {
		t.Fatal("no migration span recorded")
	}
	if root.Dur() != bd.MigrationTime() {
		t.Errorf("migration span %v != MigrationTime %v", root.Dur(), bd.MigrationTime())
	}
	if cov := childSum(rep, root.ID); cov < root.Dur()*95/100 {
		t.Errorf("span children cover %v of %v (< 95%%)", cov, root.Dur())
	}
	dt, ok := rep.Child(root.ID, "downtime")
	if !ok {
		t.Fatal("no downtime span recorded")
	}
	if dt.Dur() != bd.Downtime {
		t.Errorf("downtime span %v != Breakdown.Downtime %v", dt.Dur(), bd.Downtime)
	}
	if sum := childSum(rep, dt.ID); sum != dt.Dur() {
		t.Errorf("downtime children sum %v != downtime %v", sum, dt.Dur())
	}

	// Fault-service latency: every post-restore fault went over TCP, so
	// the histogram is populated with real non-zero latencies.
	h, ok := rep.Histograms["fault.service_ns"]
	if !ok || h.Count == 0 {
		t.Fatal("fault.service_ns histogram empty after lazy migration")
	}
	if h.P50Ns == 0 || h.P95Ns == 0 || h.P99Ns == 0 {
		t.Errorf("fault latency percentiles zero: p50=%d p95=%d p99=%d", h.P50Ns, h.P95Ns, h.P99Ns)
	}

	// Counters agree with the established accessors.
	if got, want := rep.Counters["fault.fetches"], h.Count; got != want {
		t.Errorf("fault.fetches = %d, want %d (histogram count)", got, want)
	}
	if got, want := rep.Counters["pageserver.requests"], res.PageStats().Requests; got != want {
		t.Errorf("pageserver.requests = %d, PageStats().Requests = %d", got, want)
	}
	if got, want := rep.Counters["migrate.image_bytes"], bd.ImageBytes; got != want {
		t.Errorf("migrate.image_bytes = %d, Breakdown.ImageBytes = %d", got, want)
	}
	if got := rep.Counters["dump.count"]; got != 1 {
		t.Errorf("dump.count = %d, want 1", got)
	}
	if got := rep.Counters["monitor.pauses"]; got != 1 {
		t.Errorf("monitor.pauses = %d, want 1", got)
	}
	if rep.Counters["dump.pages_lazy"] == 0 {
		t.Error("dump.pages_lazy = 0 for a lazy dump")
	}
}

// TestMigratePreCopyObsReport: the pre-copy span tree must show the
// overlapped rounds and the final interruption, summing exactly to the
// migration time, with counters matching the Breakdown.
func TestMigratePreCopyObsReport(t *testing.T) {
	xeon, pi, pair, kp := heapSetup(t, 4)
	reg := obs.New()
	res, err := cluster.Migrate(xeon, pi, kp.p, pair.Meta, cluster.MigrateOpts{
		PreCopy: &cluster.PreCopyOpts{RoundBudget: kp.native/20 + 1, TCP: true},
		Obs:     reg,
	})
	if err != nil {
		t.Fatalf("pre-copy migrate: %v", err)
	}
	if err := pi.K.Run(res.Proc); err != nil {
		t.Fatal(err)
	}
	bd := res.Breakdown
	if bd.Rounds < 2 {
		t.Fatalf("converged in %d round(s); the heap workload should need iteration", bd.Rounds)
	}
	rep := reg.Report()

	root, ok := rep.Span("migration")
	if !ok {
		t.Fatal("no migration span recorded")
	}
	if root.Dur() != bd.MigrationTime() {
		t.Errorf("migration span %v != MigrationTime %v", root.Dur(), bd.MigrationTime())
	}
	// The host tree has a downtime of its own; look these up under the
	// modeled root.
	pcSpan, _ := rep.Child(root.ID, "precopy")
	dtSpan, _ := rep.Child(root.ID, "downtime")
	if got := pcSpan.Dur() + dtSpan.Dur(); got != root.Dur() {
		t.Errorf("precopy %v + downtime %v != migration %v", pcSpan.Dur(), dtSpan.Dur(), root.Dur())
	}
	if pcSpan.Dur() != bd.PreCopyTime {
		t.Errorf("precopy span %v != Breakdown.PreCopyTime %v", pcSpan.Dur(), bd.PreCopyTime)
	}
	if dtSpan.Dur() != bd.Downtime {
		t.Errorf("downtime span %v != Breakdown.Downtime %v", dtSpan.Dur(), bd.Downtime)
	}
	rounds := rep.Children(pcSpan.ID)
	if len(rounds) != bd.Rounds-1 {
		t.Errorf("%d round spans for %d rounds (final round belongs to downtime)", len(rounds), bd.Rounds)
	}
	for _, rs := range rounds {
		if sum := childSum(rep, rs.ID); sum != rs.Dur() {
			t.Errorf("round span %q children sum %v != span %v", rs.Name, sum, rs.Dur())
		}
	}
	if sum := childSum(rep, pcSpan.ID); sum != pcSpan.Dur() {
		t.Errorf("precopy children sum %v != precopy span %v", sum, pcSpan.Dur())
	}

	if got, want := rep.Counters["precopy.rounds"], uint64(bd.Rounds); got != want {
		t.Errorf("precopy.rounds = %d, Breakdown.Rounds = %d", got, want)
	}
	if got, want := rep.Counters["precopy.bytes"], bd.PreCopyBytes; got != want {
		t.Errorf("precopy.bytes = %d, Breakdown.PreCopyBytes = %d", got, want)
	}
	if got, want := rep.Counters["migrate.image_bytes"], bd.ImageBytes; got != want {
		t.Errorf("migrate.image_bytes = %d, Breakdown.ImageBytes = %d", got, want)
	}
	if got, want := rep.Counters["dump.count"], uint64(bd.Rounds); got != want {
		t.Errorf("dump.count = %d, want %d (one per round)", got, want)
	}
	if got, want := rep.Counters["monitor.pauses"], uint64(bd.Rounds); got != want {
		t.Errorf("monitor.pauses = %d, want %d (one per round)", got, want)
	}
	// Every data page a dump carries is a source frame it shares; the
	// source, running between rounds, copies the ones it writes, and can
	// break each share at most once.
	shared := rep.Counters["dump.pages_dumped"] - rep.Counters["dump.pages_delta"]
	if breaks := rep.Counters["precopy.cow_breaks"]; breaks == 0 || breaks > shared {
		t.Errorf("precopy.cow_breaks = %d, want between 1 and the %d pages shared", breaks, shared)
	}
}
