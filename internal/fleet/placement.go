package fleet

import (
	"fmt"

	"github.com/dapper-sim/dapper/internal/isa"
)

// Placement picks a destination node for a job, or nil when candidates
// is empty. The manager pre-filters candidates — only alive, undrained
// nodes with a free migration slot that are not the job's source (and
// match the job's TargetArch, if any) are offered, sorted by node name —
// so a policy ranks eligibility, it does not re-derive it. src is nil
// for a clone job, which has no source. A policy is a pure function of
// its arguments plus its own state (the round-robin cursor), so
// placement is deterministic for a deterministic submission order.
type Placement func(job *Job, src *NodeState, candidates []*NodeState) *NodeState

// NewPlacement builds a placement policy by name: "least-loaded",
// "isa-affinity", or "round-robin".
func NewPlacement(name string) (Placement, error) {
	switch name {
	case "least-loaded":
		return leastLoaded, nil
	case "isa-affinity":
		return isaAffinity, nil
	case "round-robin":
		return roundRobin(), nil
	default:
		return nil, fmt.Errorf("fleet: unknown placement policy %q (want least-loaded, isa-affinity, or round-robin)", name)
	}
}

// leastLoaded picks the node with the lowest occupancy fraction
// (running migrations / capacity), breaking ties by name for
// determinism.
func leastLoaded(_ *Job, _ *NodeState, candidates []*NodeState) *NodeState {
	var best *NodeState
	var bestLoad float64
	for _, n := range candidates {
		load := float64(n.Running()) / float64(n.Capacity)
		if best == nil || load < bestLoad {
			best, bestLoad = n, load
		}
	}
	return best
}

// isaAffinity prefers a cross-ISA destination — the paper's raison
// d'être is moving work between SX86 servers and SARM boards, so by
// default a job lands on the other architecture (load permitting),
// falling back to same-ISA nodes only when no cross-ISA candidate is
// offered. Ties inside the preferred class break least-loaded.
func isaAffinity(job *Job, src *NodeState, candidates []*NodeState) *NodeState {
	if src != nil {
		var cross []*NodeState
		for _, n := range candidates {
			if n.Arch() != src.Arch() {
				cross = append(cross, n)
			}
		}
		if len(cross) > 0 {
			return leastLoaded(job, src, cross)
		}
	}
	return leastLoaded(job, src, candidates)
}

// roundRobin cycles through nodes in name order, skipping ineligible
// ones. The cursor advances only on successful picks, so a temporarily
// full node does not permanently shift the rotation.
func roundRobin() Placement {
	cursor := 0
	return func(_ *Job, _ *NodeState, candidates []*NodeState) *NodeState {
		if len(candidates) == 0 {
			return nil
		}
		pick := candidates[cursor%len(candidates)]
		cursor++
		return pick
	}
}

// archOf parses a TargetArch constraint; "" means unconstrained.
func archOf(name string) (isa.Arch, bool) {
	switch name {
	case "sx86":
		return isa.SX86, true
	case "sarm":
		return isa.SARM, true
	default:
		return 0, false
	}
}
