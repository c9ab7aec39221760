package fleet

import (
	"sync/atomic"
	"testing"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
)

// TestPlacementRacesHeartbeatMarkDown pins the race between the
// heartbeat prober and an in-flight placement: the prober flips down
// flags without the manager lock, so a node can be marked down after the
// scheduler's eligibility scan but before the job dispatches. The
// placement must fail cleanly — slots released, job back to Pending,
// fleet.placement_races counted — and the job must complete once the
// node recovers. Before the re-check in schedule() this test failed: the
// counter never fired and the job dispatched Running onto the node the
// prober had just declared dead. A clone job holds only its destination
// and must meet the same race the same way.
func TestPlacementRacesHeartbeatMarkDown(t *testing.T) {
	cases := []struct {
		name string
		spec func(t *testing.T, cfg *Config) JobSpec
	}{
		{"migration", func(*testing.T, *Config) JobSpec {
			return JobSpec{Program: "counter", SrcNode: "xeon0", DstNode: "pi0"}
		}},
		{"clone", func(t *testing.T, cfg *Config) JobSpec {
			cfg.Registry = openStore(t)
			return JobSpec{Program: "counter", Manifest: pushCheckpoint(t, cfg.Registry), DstNode: "pi0"}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := fastConfig()
			// Keep the real heartbeat out of the way: the test injects the
			// mark-down itself, deterministically, mid-placement.
			cfg.Heartbeat = HeartbeatConfig{Interval: time.Hour, MaxMissed: 3}
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
			var raced atomic.Bool
			m.testHookAfterAcquire = func(_ *Job, _, dst *NodeState) {
				if raced.Swap(true) {
					return // sabotage only the first placement
				}
				dst.down.Store(true) // the heartbeat prober's mark-down, mid-placement
			}
			if err := m.Start(); err != nil {
				t.Fatal(err)
			}
			id, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}

			deadline := time.Now().Add(5 * time.Second)
			for m.reg.Counter("fleet.placement_races").Value() == 0 {
				if time.Now().After(deadline) {
					t.Fatal("placement race never detected")
				}
				time.Sleep(time.Millisecond)
			}
			// The doomed placement must not have dispatched: with the node still
			// down the job sits Pending, its slots released (nothing Running on
			// either node).
			time.Sleep(10 * time.Millisecond)
			if v, _ := m.Job(id); v.State != "pending" {
				t.Fatalf("job state after raced placement: %s, want pending", v.State)
			}
			for _, name := range []string{"xeon0", "pi0"} {
				n, _ := m.NodeByName(name)
				if n.Running() != 0 {
					t.Fatalf("%s holds %d slots after the raced placement released them", name, n.Running())
				}
			}

			// Node recovers; the pending job must place and finish normally.
			n, _ := m.NodeByName("pi0")
			n.down.Store(false)
			m.kick()
			if err := m.WaitIdle(time.Minute); err != nil {
				t.Fatal(err)
			}
			if v, _ := m.Job(id); v.State != "done" {
				t.Fatalf("job after recovery: state %s (err %q)", v.State, v.Err)
			}
			if got := m.reg.Counter("fleet.placement_races").Value(); got != 1 {
				t.Errorf("fleet.placement_races = %d, want 1", got)
			}
		})
	}
}
