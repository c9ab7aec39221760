package fleet

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// counter is a small deterministic program cheap enough that fleet tests
// can run dozens of migrations of it. The strided walk over data keeps a
// multi-page working set hot after the migration point, so post-copy
// restores genuinely fetch pages (and injected transport faults genuinely
// fire); the helper call in the hot loop gives the monitor its
// equivalence points.
const counter = `
var data[4096] int;
var acc int;
func fill() {
	var i int;
	for i = 0; i < 4096; i = i + 1 {
		data[i] = (i % 251) + 1;
	}
}
func bump(i int) {
	acc = acc + data[(i * 7) % 4096];
}
func main() {
	var i int;
	fill();
	for i = 0; i < 6000; i = i + 1 {
		bump(i);
	}
	printi(acc);
}`

// fastConfig keeps retry backoff test-sized.
func fastConfig() Config {
	return Config{
		RetryBase: time.Millisecond,
		RetryMax:  20 * time.Millisecond,
	}
}

// mixedFleet builds a manager with two Xeons and two Pis at the given
// slot capacity and the counter program registered.
func mixedFleet(t *testing.T, cfg Config, capacity int) *Manager {
	t.Helper()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := m.AddNode(fmt.Sprintf("xeon%d", i), cluster.XeonSpec, capacity); err != nil {
			t.Fatal(err)
		}
		if err := m.AddNode(fmt.Sprintf("pi%d", i), cluster.PiSpec, capacity); err != nil {
			t.Fatal(err)
		}
	}
	// A journal-backed manager re-registers "counter" from its replay;
	// tolerate the duplicate exactly the way dapperd does.
	if err := m.RegisterProgram("counter", counter); err != nil && !strings.Contains(err.Error(), "duplicate program") {
		t.Fatal(err)
	}
	return m
}

func stopManager(t *testing.T, m *Manager) {
	t.Helper()
	if err := m.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
}

// TestFleetSmoke is the acceptance scenario: 20 mixed-mode jobs across
// four mixed-ISA nodes with deterministic transport faults injected into
// the lazy jobs' early attempts. Every job must converge to Done (the
// faulted ones via rollback-to-source and retry), per-node concurrency
// must never exceed capacity, and no migration may corrupt its output.
func TestFleetSmoke(t *testing.T) {
	cfg := fastConfig()
	cfg.Policy = "isa-affinity"
	m := mixedFleet(t, cfg, 2)
	defer stopManager(t, m)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}

	flaky := func(seed int64, listener bool) *FaultPlan {
		plan := &FaultPlan{FailAttempts: 1}
		if listener {
			plan.Faults = &criu.FaultSpec{Seed: seed, DropRate: 1.0}
		} else {
			plan.Faults = &criu.FaultSpec{Seed: seed, FailRate: 1.0}
		}
		return plan
	}

	var ids []int
	for i := 0; i < 20; i++ {
		spec := JobSpec{Program: "counter", RunFrac: 0.4}
		switch i % 5 {
		case 0: // vanilla, uncompressed
			spec.Opts = JobOpts{Codec: "none"}
		case 1: // vanilla, compressed
			spec.Opts = JobOpts{Codec: "flate"}
		case 2: // pre-copy with XOR-delta rounds
			spec.Opts = JobOpts{PreCopy: true, Delta: true, Codec: "flate"}
		case 3: // lazy with an injected page-fetch failure on attempt 1
			spec.Opts = JobOpts{Lazy: true}
			spec.Faults = flaky(int64(100+i), false)
		case 4: // lazy with an injected mid-frame connection drop
			spec.Opts = JobOpts{Lazy: true}
			spec.Faults = flaky(int64(200+i), true)
		}
		id, err := m.Submit(spec)
		if err != nil {
			t.Fatalf("submit job %d: %v", i, err)
		}
		ids = append(ids, id)
	}

	if err := m.WaitIdle(3 * time.Minute); err != nil {
		t.Fatal(err)
	}

	for _, id := range ids {
		v, ok := m.Job(id)
		if !ok {
			t.Fatalf("job %d vanished", id)
		}
		if v.State != "done" {
			t.Errorf("job %d: state %s (err %q), want done", id, v.State, v.Err)
		}
		if v.Migration <= 0 || v.ImageBytes == 0 {
			t.Errorf("job %d: missing migration stats: %+v", id, v)
		}
	}

	rep := m.Report()
	if rep.Done != 20 || rep.Submitted != 20 {
		t.Errorf("report counts: submitted=%d done=%d, want 20/20", rep.Submitted, rep.Done)
	}
	// Eight lazy jobs each fail their first attempt by plan, so retries
	// and rollbacks provably fired.
	if rep.Retries < 8 {
		t.Errorf("retries=%d, want >= 8 (every fault-plan job fails attempt 1)", rep.Retries)
	}
	if rep.Rollbacks < 8 {
		t.Errorf("rollbacks=%d, want >= 8", rep.Rollbacks)
	}
	if rep.Corrupt != 0 {
		t.Errorf("corrupt outputs: %d", rep.Corrupt)
	}
	if rep.FailedJ != 0 {
		t.Errorf("failed jobs: %d", rep.FailedJ)
	}
	for _, n := range rep.Nodes {
		if n.HighWater > n.Capacity {
			t.Errorf("node %s: high-water %d exceeds capacity %d", n.Name, n.HighWater, n.Capacity)
		}
		if n.Running != 0 {
			t.Errorf("node %s: %d migrations still running after idle", n.Name, n.Running)
		}
	}
	if rep.MigrationP95 < rep.MigrationP50 {
		t.Errorf("percentiles inverted: p50=%v p95=%v", rep.MigrationP50, rep.MigrationP95)
	}
}

// TestFleetResume kills the daemon mid-queue and restarts it on the same
// journal: finished jobs must stay finished (no duplication), unfinished
// ones must re-run to completion (no loss), and new IDs must not collide.
func TestFleetResume(t *testing.T) {
	journalPath := filepath.Join(t.TempDir(), "fleet.journal")

	cfg := fastConfig()
	cfg.Journal = journalPath
	cfg.MaxJobs = 1 // serialize so a mid-queue stop leaves pending jobs
	m1 := mixedFleet(t, cfg, 1)
	const jobs = 6
	for i := 0; i < jobs; i++ {
		if _, err := m1.Submit(JobSpec{Program: "counter"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m1.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for at least one completion, then "kill" the daemon: Stop
	// drains the in-flight attempt and abandons the rest of the queue.
	deadline := time.Now().Add(time.Minute)
	for {
		if doneCount(m1) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no job completed within a minute")
		}
		time.Sleep(time.Millisecond)
	}
	stopManager(t, m1)
	finished := map[int]bool{}
	for _, v := range m1.Jobs() {
		if v.State == "done" {
			finished[v.ID] = true
		}
	}
	if len(finished) == 0 || len(finished) == jobs {
		t.Fatalf("want a mid-queue stop, got %d/%d done", len(finished), jobs)
	}

	// Second lifetime: same journal. Programs re-register from the
	// journal; only unfinished jobs are requeued.
	cfg2 := fastConfig()
	cfg2.Journal = journalPath
	m2 := mixedFleet(t, cfg2, 1)
	defer stopManager(t, m2)
	views := m2.Jobs()
	if len(views) != jobs {
		t.Fatalf("replay: %d jobs, want %d", len(views), jobs)
	}
	resumed := 0
	for _, v := range views {
		switch {
		case finished[v.ID]:
			if v.State != "done" {
				t.Errorf("job %d was done before the restart, replayed as %s", v.ID, v.State)
			}
		default:
			if v.State != "pending" || !v.Resumed {
				t.Errorf("job %d: state %s resumed=%v, want resumed pending", v.ID, v.State, v.Resumed)
			}
			resumed++
		}
	}
	if want := jobs - len(finished); resumed != want {
		t.Errorf("resumed %d jobs, want %d", resumed, want)
	}
	if err := m2.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m2.WaitIdle(2 * time.Minute); err != nil {
		t.Fatal(err)
	}
	// No duplication: the second lifetime completed exactly the resumed
	// jobs, and every job is terminal-done exactly once overall.
	if got := m2.Report().Done; got != uint64(jobs-len(finished)) {
		t.Errorf("second lifetime completed %d jobs, want %d", got, jobs-len(finished))
	}
	for _, v := range m2.Jobs() {
		if v.State != "done" {
			t.Errorf("job %d: state %s after resume, want done", v.ID, v.State)
		}
	}
	// IDs keep rising across restarts.
	id, err := m2.Submit(JobSpec{Program: "counter"})
	if err != nil {
		t.Fatal(err)
	}
	if id != jobs+1 {
		t.Errorf("post-restart ID %d, want %d", id, jobs+1)
	}
	if err := m2.WaitIdle(time.Minute); err != nil {
		t.Fatal(err)
	}
}

// TestFleetMaxJobs pins the fleet-wide bound on attempts in flight. Two
// nodes of capacity 2 have room for two migrations at once, and every job
// is submitted before Start, so the first scheduling pass sees them all:
// it dispatches two unless MaxJobs holds it to one. The unbounded row
// shows the pass does reach two, so the bounded row's 1 is the bound's.
func TestFleetMaxJobs(t *testing.T) {
	for _, tc := range []struct{ maxJobs, wantHighWater int }{{1, 1}, {0, 2}} {
		t.Run(fmt.Sprintf("max-jobs=%d", tc.maxJobs), func(t *testing.T) {
			cfg := fastConfig()
			cfg.MaxJobs = tc.maxJobs
			m, err := NewManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer stopManager(t, m)
			for name, spec := range map[string]cluster.NodeSpec{"xeon0": cluster.XeonSpec, "pi0": cluster.PiSpec} {
				if err := m.AddNode(name, spec, 2); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.RegisterProgram("counter", counter); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := m.Submit(JobSpec{Program: "counter"}); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Start(); err != nil {
				t.Fatal(err)
			}
			if err := m.WaitIdle(time.Minute); err != nil {
				t.Fatal(err)
			}
			if n := doneCount(m); n != 3 {
				t.Errorf("%d of 3 jobs done", n)
			}
			for _, n := range m.Report().Nodes {
				if n.HighWater != tc.wantHighWater {
					t.Errorf("%s: high-water %d slots, want %d", n.Name, n.HighWater, tc.wantHighWater)
				}
			}
		})
	}
}

// TestFleetMaxJobsKeepsRotation: a job the fleet-wide bound holds back
// is not placed, so it does not turn the round-robin cursor. Four jobs
// from one pinned source, submitted before Start and run one at a time,
// land on the three destinations in rotation, none skipped.
func TestFleetMaxJobsKeepsRotation(t *testing.T) {
	cfg := fastConfig()
	cfg.MaxJobs = 1
	cfg.Policy = "round-robin"
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer stopManager(t, m)
	if err := m.AddNode("xeon0", cluster.XeonSpec, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := m.AddNode(fmt.Sprintf("pi%d", i), cluster.PiSpec, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RegisterProgram("counter", counter); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := m.Submit(JobSpec{Program: "counter", SrcNode: "xeon0"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitIdle(time.Minute); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, v := range m.Jobs() {
		got = append(got, v.Dst)
	}
	if want := []string{"pi0", "pi1", "pi2", "pi0"}; !slices.Equal(got, want) || doneCount(m) != 4 {
		t.Errorf("destinations %v (%d done), want %v, all done", got, doneCount(m), want)
	}
}

func doneCount(m *Manager) int {
	n := 0
	for _, v := range m.Jobs() {
		if v.State == "done" {
			n++
		}
	}
	return n
}

// TestFleetDrain verifies drain semantics: a drained node takes no new
// placements, and undraining it releases the queue. In every row pi0 is
// the job's only possible destination — the one other node for a
// xeon0-sourced migration, or the DstNode pin of a migration or a clone
// job — so the job must stay pending, holding no slot on either node,
// until pi0 is undrained.
func TestFleetDrain(t *testing.T) {
	cases := []struct {
		name string
		spec func(t *testing.T, cfg *Config) JobSpec
	}{
		{"only-destination", func(*testing.T, *Config) JobSpec {
			return JobSpec{Program: "counter", SrcNode: "xeon0"}
		}},
		{"pinned-migration", func(*testing.T, *Config) JobSpec {
			return JobSpec{Program: "counter", DstNode: "pi0"}
		}},
		{"pinned-clone", func(t *testing.T, cfg *Config) JobSpec {
			cfg.Registry = openStore(t)
			return JobSpec{Program: "counter", Manifest: pushCheckpoint(t, cfg.Registry), DstNode: "pi0"}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastConfig()
			spec := tc.spec(t, &cfg)
			m, err := NewManager(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer stopManager(t, m)
			if err := m.AddNode("xeon0", cluster.XeonSpec, 2); err != nil {
				t.Fatal(err)
			}
			if err := m.AddNode("pi0", cluster.PiSpec, 2); err != nil {
				t.Fatal(err)
			}
			if err := m.RegisterProgram("counter", counter); err != nil {
				t.Fatal(err)
			}
			if err := m.Drain("pi0", true); err != nil {
				t.Fatal(err)
			}
			if err := m.Start(); err != nil {
				t.Fatal(err)
			}
			id, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			time.Sleep(50 * time.Millisecond)
			if v, _ := m.Job(id); v.State != "pending" {
				t.Fatalf("job placed on a drained node: state %s", v.State)
			}
			for _, n := range m.Report().Nodes {
				if n.Running != 0 {
					t.Fatalf("%s holds %d slots while its job waits for a drained node", n.Name, n.Running)
				}
			}
			if err := m.Drain("pi0", false); err != nil {
				t.Fatal(err)
			}
			if err := m.WaitIdle(time.Minute); err != nil {
				t.Fatal(err)
			}
			if v, _ := m.Job(id); v.State != "done" {
				t.Fatalf("job after undrain: state %s (err %q)", v.State, v.Err)
			}
			if m.Report().Drains != 1 {
				t.Errorf("drains counter: %d, want 1", m.Report().Drains)
			}
		})
	}
}

// TestFleetRetryExhaustion pins the terminal-failure path: a job whose
// fault plan outlives its retry budget must land in Failed, not spin.
func TestFleetRetryExhaustion(t *testing.T) {
	cfg := fastConfig()
	m := mixedFleet(t, cfg, 2)
	defer stopManager(t, m)
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(JobSpec{
		Program:    "counter",
		MaxRetries: 2,
		Opts:       JobOpts{Lazy: true},
		Faults: &FaultPlan{
			FailAttempts: 99, // every attempt fails
			Faults:       &criu.FaultSpec{Seed: 7, FailRate: 1.0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitIdle(time.Minute); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Job(id)
	if v.State != "failed" {
		t.Fatalf("state %s, want failed", v.State)
	}
	if v.Attempts != 3 { // 1 initial + 2 retries
		t.Errorf("attempts %d, want 3", v.Attempts)
	}
	if v.Err == "" {
		t.Error("failed job carries no error")
	}
}

// TestSubmitValidation pins the submit-side error surface.
func TestSubmitValidation(t *testing.T) {
	m := mixedFleet(t, fastConfig(), 1)
	defer stopManager(t, m)
	cases := []struct {
		name string
		spec JobSpec
	}{
		{"no program", JobSpec{}},
		{"unknown program", JobSpec{Program: "nope"}},
		{"bad codec", JobSpec{Program: "counter", Opts: JobOpts{Codec: "zstd"}}},
		{"delta without precopy", JobSpec{Program: "counter", Opts: JobOpts{Delta: true}}},
		{"lazy and precopy", JobSpec{Program: "counter", Opts: JobOpts{Lazy: true, PreCopy: true}}},
		{"bad arch", JobSpec{Program: "counter", TargetArch: "riscv"}},
		{"bad src", JobSpec{Program: "counter", SrcNode: "ghost"}},
		{"bad dst", JobSpec{Program: "counter", DstNode: "ghost"}},
		{"bad frac", JobSpec{Program: "counter", RunFrac: 1.5}},
	}
	for _, tc := range cases {
		if _, err := m.Submit(tc.spec); err == nil {
			t.Errorf("%s: submit accepted", tc.name)
		}
	}
}

// TestRegisterWorkload covers the workloads-registry registration path
// end to end with one real migration.
func TestRegisterWorkload(t *testing.T) {
	cfg := fastConfig()
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer stopManager(t, m)
	if err := m.AddNode("xeon0", cluster.XeonSpec, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.AddNode("pi0", cluster.PiSpec, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterWorkload("cg", workloads.ClassS); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterWorkload("cg", workloads.ClassS); err == nil {
		t.Error("duplicate registration accepted")
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	id, err := m.Submit(JobSpec{Program: "cg", TargetArch: "sarm"})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitIdle(time.Minute); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Job(id)
	if v.State != "done" {
		t.Fatalf("cg job: state %s (err %q)", v.State, v.Err)
	}
	if v.Dst != "pi0" {
		t.Errorf("sarm-constrained job landed on %s", v.Dst)
	}
}
