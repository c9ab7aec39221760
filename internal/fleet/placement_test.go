package fleet

import (
	"testing"

	"github.com/dapper-sim/dapper/internal/cluster"
)

// testNode builds a detached NodeState (no manager) for placement tests.
func testNode(name string, spec cluster.NodeSpec, capacity, running int) *NodeState {
	spec.Name = name
	n := &NodeState{
		Name:     name,
		Node:     cluster.NewNode(spec),
		Capacity: capacity,
	}
	n.running.Store(int64(running))
	return n
}

func TestLeastLoadedPlacement(t *testing.T) {
	p, err := NewPlacement("least-loaded")
	if err != nil {
		t.Fatal(err)
	}
	idle := testNode("b-idle", cluster.PiSpec, 2, 0)
	half := testNode("a-half", cluster.XeonSpec, 2, 1)
	if got := p(nil, nil, []*NodeState{half, idle}); got != idle {
		t.Errorf("picked %s, want the idle node", got.Name)
	}
	// Ties break to the first candidate (candidates arrive name-sorted).
	tieA := testNode("a", cluster.XeonSpec, 2, 1)
	tieB := testNode("b", cluster.PiSpec, 2, 1)
	if got := p(nil, nil, []*NodeState{tieA, tieB}); got != tieA {
		t.Errorf("tie picked %s, want a", got.Name)
	}
	if p(nil, nil, nil) != nil {
		t.Error("empty candidates produced a pick")
	}
	// Load is a fraction of capacity, not an absolute count: 2/8 busy
	// beats 1/2 busy.
	big := testNode("big", cluster.XeonSpec, 8, 2)
	small := testNode("small", cluster.PiSpec, 2, 1)
	if got := p(nil, nil, []*NodeState{big, small}); got != big {
		t.Errorf("picked %s, want the fractionally idler big node", got.Name)
	}
}

func TestISAAffinityPlacement(t *testing.T) {
	p, err := NewPlacement("isa-affinity")
	if err != nil {
		t.Fatal(err)
	}
	src := testNode("xeon0", cluster.XeonSpec, 2, 0)
	sameIdle := testNode("xeon1", cluster.XeonSpec, 2, 0)
	crossBusy := testNode("pi0", cluster.PiSpec, 2, 1)
	// Cross-ISA wins even when busier.
	if got := p(nil, src, []*NodeState{crossBusy, sameIdle}); got != crossBusy {
		t.Errorf("picked %s, want the cross-ISA node", got.Name)
	}
	// With no cross-ISA candidate it degrades to least-loaded.
	if got := p(nil, src, []*NodeState{sameIdle}); got != sameIdle {
		t.Errorf("picked %v, want the same-ISA fallback", got)
	}
	// Without a source yet, plain least-loaded.
	if got := p(nil, nil, []*NodeState{crossBusy, sameIdle}); got != sameIdle {
		t.Errorf("sourceless pick %s, want least-loaded", got.Name)
	}
}

func TestRoundRobinPlacement(t *testing.T) {
	p, err := NewPlacement("round-robin")
	if err != nil {
		t.Fatal(err)
	}
	a := testNode("a", cluster.XeonSpec, 2, 0)
	b := testNode("b", cluster.PiSpec, 2, 0)
	c := testNode("c", cluster.PiSpec, 2, 0)
	got := []string{}
	for i := 0; i < 4; i++ {
		got = append(got, p(nil, nil, []*NodeState{a, b, c}).Name)
	}
	want := []string{"a", "b", "c", "a"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation %v, want %v", got, want)
		}
	}
}

func TestNewPlacementErrors(t *testing.T) {
	if _, err := NewPlacement("chaos"); err == nil {
		t.Error("unknown policy accepted")
	}
	m, err := NewManager(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer stopManager(t, m)
	if got := m.Report().Policy; got != "least-loaded" {
		t.Errorf("default policy %s", got)
	}
}
