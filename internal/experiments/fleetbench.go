package experiments

import (
	"fmt"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/criu"
	"github.com/dapper-sim/dapper/internal/fleet"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// fleetJobs is how many migrations each concurrency level pushes through
// the control plane.
const fleetJobs = 12

// fleetPager is the inline program behind the fault-plan jobs: its
// strided multi-page walk guarantees the post-copy restore actually
// fetches pages over the transport, so the injected faults provably fire
// and the table's retry column measures the real retry/rollback path
// rather than an accident of working-set size.
const fleetPager = `
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

// fleetRun drives one fleet of four mixed-ISA nodes at a given fleet-wide
// concurrency bound and returns the finished manager's report plus the
// wall-clock the queue took to drain.
func fleetRun(c workloads.Class, conc int) (*fleet.FleetReport, time.Duration, error) {
	m, err := fleet.NewManager(fleet.Config{
		MaxJobs:   conc,
		Policy:    "isa-affinity",
		RetryBase: time.Millisecond,
		RetryMax:  20 * time.Millisecond,
	})
	if err != nil {
		return nil, 0, err
	}
	defer func() {
		// The manager is drained before we get here; Stop only joins loops.
		_ = m.Stop()
	}()
	for i := 0; i < 2; i++ {
		if err := m.AddNode(fmt.Sprintf("xeon%d", i), cluster.XeonSpec, 4); err != nil {
			return nil, 0, err
		}
		if err := m.AddNode(fmt.Sprintf("pi%d", i), cluster.PiSpec, 4); err != nil {
			return nil, 0, err
		}
	}
	if err := m.RegisterWorkload("cg", c); err != nil {
		return nil, 0, err
	}
	if err := m.RegisterProgram("pager", fleetPager); err != nil {
		return nil, 0, err
	}
	if err := m.Start(); err != nil {
		return nil, 0, err
	}
	start := time.Now()
	for i := 0; i < fleetJobs; i++ {
		spec := fleet.JobSpec{Program: "cg"}
		switch i % 3 {
		case 0: // post-copy with a deterministic first-attempt fault
			spec = fleet.JobSpec{
				Program: "pager",
				Opts:    fleet.JobOpts{Lazy: true},
				Faults: &fleet.FaultPlan{
					FailAttempts: 1,
					Faults:       &criu.FaultSpec{Seed: int64(1000 + i), FailRate: 1.0},
				},
			}
		case 1: // vanilla over the compressed wire
			spec.Opts = fleet.JobOpts{Codec: "flate"}
		case 2: // iterative pre-copy with XOR-delta rounds
			spec.Opts = fleet.JobOpts{PreCopy: true, Delta: true, Codec: "flate"}
		}
		if _, err := m.Submit(spec); err != nil {
			return nil, 0, err
		}
	}
	if err := m.WaitIdle(10 * time.Minute); err != nil {
		return nil, 0, err
	}
	elapsed := time.Since(start)
	rep := m.Report()

	// The gates: a corrupt restored image, a job that never converged, or
	// a retry path that never fired all fail the run — under-reporting a
	// broken control plane is exactly what this table exists to prevent.
	if rep.Corrupt != 0 {
		return nil, 0, fmt.Errorf("fleet(conc=%d): %d corrupt migrations", conc, rep.Corrupt)
	}
	if rep.FailedJ != 0 || rep.Done != fleetJobs {
		return nil, 0, fmt.Errorf("fleet(conc=%d): %d/%d jobs done, %d failed", conc, rep.Done, fleetJobs, rep.FailedJ)
	}
	if rep.Retries == 0 || rep.Rollbacks == 0 {
		return nil, 0, fmt.Errorf("fleet(conc=%d): retry path never fired (retries=%d rollbacks=%d) despite %d fault-plan jobs",
			conc, rep.Retries, rep.Rollbacks, (fleetJobs+2)/3)
	}
	for _, n := range rep.Nodes {
		if n.HighWater > n.Capacity {
			return nil, 0, fmt.Errorf("fleet(conc=%d): node %s exceeded its slot bound (%d > %d)", conc, n.Name, n.HighWater, n.Capacity)
		}
	}
	return rep, elapsed, nil
}

// Fleet measures control-plane throughput: the same 12-job mixed queue
// (post-copy with injected first-attempt faults, vanilla with flate,
// pre-copy with delta) pushed through four mixed-ISA nodes
// at fleet-wide concurrency bounds of 1, 4, and 8. Retry rate is retries
// per job — nonzero by construction, since every third job's fault plan
// fails its first attempt.
func Fleet(c workloads.Class) (*Table, error) {
	t := &Table{
		ID:     "fleet",
		Title:  fmt.Sprintf("fleet throughput, %d-job mixed queue on 2x Xeon + 2x Pi (class %s)", fleetJobs, c),
		Header: []string{"concurrency", "wall time", "migs/sec", "retries", "retry rate", "rollbacks", "migration p95"},
		Notes: []string{
			"every third job injects a FailRate-1.0 page-fetch fault into its first post-copy attempt,",
			"so the retry+rollback path is exercised at every concurrency level; the run hard-fails if",
			"any job fails, any output is corrupt, or the retry path never fires.",
		},
		Telemetry: map[string]*obs.Report{},
	}
	for _, conc := range []int{1, 4, 8} {
		rep, elapsed, err := fleetRun(c, conc)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", conc),
			fmt.Sprintf("%.2fs", elapsed.Seconds()),
			fmt.Sprintf("%.1f", float64(rep.Done)/elapsed.Seconds()),
			fmt.Sprintf("%d", rep.Retries),
			fmt.Sprintf("%.2f", float64(rep.Retries)/float64(rep.Done)),
			fmt.Sprintf("%d", rep.Rollbacks),
			rep.MigrationP95.String(),
		})
		t.Telemetry[fmt.Sprintf("conc=%d", conc)] = rep.Obs
	}
	return t, nil
}
