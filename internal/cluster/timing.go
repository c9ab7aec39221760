package cluster

import (
	"time"
)

// Link models a network connection for the image-copy (scp) phase.
type Link struct {
	Name         string
	BandwidthBps float64 // application-level throughput, bytes/second
	LatencySec   float64 // per-transfer setup cost
}

// InfiniBand is the link every migration is modeled over, calibrated so
// copying the paper's typical checkpoint (tens of MB of process images)
// takes ≈300 ms, the number reported in §IV-A.
var InfiniBand = Link{Name: "infiniband", BandwidthBps: 350e6, LatencySec: 2e-3}

// TransferTime models copying n bytes.
func (l Link) TransferTime(n uint64) time.Duration {
	s := l.LatencySec + float64(n)/l.BandwidthBps
	return time.Duration(s * float64(time.Second))
}

// Transformation-cost calibration. The absolute constants are fitted to
// the paper's reported ranges (checkpoint/restore < 30 ms; recode ≈
// 254 ms on the Xeon vs ≈ 1005 ms on the Pi for the same images; lazy
// restore ≈ 8 ms); the *structure* (linear in image bytes, inversely
// proportional to node speed) is what carries the figure shapes.
const (
	// checkpointBaseSec is CRIU's fixed dump cost; checkpointBps the rate
	// at which pages are streamed to tmpfs.
	checkpointBaseSec = 4e-3
	checkpointBps     = 2.5e9
	// recodeBaseCycles + recodeCyclesPerByte model the rewriter: stack
	// unwinding is per-image work, page rewriting linear in bytes.
	recodeBaseCycles    = 300e6
	recodeCyclesPerByte = 80.0
	// restoreBaseSec + restoreBps model rebuilding the address space;
	// lazyRestoreSec is the minimal-context restore of post-copy.
	restoreBaseSec = 3e-3
	restoreBps     = 3e9
	lazyRestoreSec = 8e-3
)

// CheckpointTime models the dump cost for an image of the given size.
func CheckpointTime(bytes uint64) time.Duration {
	s := checkpointBaseSec + float64(bytes)/checkpointBps
	return time.Duration(s * float64(time.Second))
}

// RecodeTime models running the rewriter on a given node: identical logic,
// different micro-architectural strength — the paper's explanation for the
// 254 ms vs 1005 ms asymmetry.
func RecodeTime(n *Node, bytes uint64) time.Duration {
	cycles := recodeBaseCycles + recodeCyclesPerByte*float64(bytes)
	s := cycles / (n.Spec.ClockHz * n.Spec.IPC)
	return time.Duration(s * float64(time.Second))
}

// RecodePagesTime models just the page-translation half of the rewrite —
// the per-byte work pre-copy overlaps with execution by streaming each
// round's pages to the rewriter as they arrive. The per-image base cost
// (stack unwinding needs the final register state) stays in the downtime
// window; see RecodeTime.
func RecodePagesTime(n *Node, bytes uint64) time.Duration {
	cycles := recodeCyclesPerByte * float64(bytes)
	s := cycles / (n.Spec.ClockHz * n.Spec.IPC)
	return time.Duration(s * float64(time.Second))
}

// RestoreTime models the restore cost.
func RestoreTime(bytes uint64, lazy bool) time.Duration {
	if lazy {
		return time.Duration(lazyRestoreSec * float64(time.Second))
	}
	s := restoreBaseSec + float64(bytes)/restoreBps
	return time.Duration(s * float64(time.Second))
}

// Shuffle-time model (Fig. 9): the SBI pass disassembles and re-encodes
// every function, so cost is linear in code size and inversely
// proportional to node speed (the paper's 573 ms on x86 vs 3.2 s on the
// ARM board for the same logic).
const (
	shuffleBaseCycles    = 2e8
	shuffleCyclesPerByte = 8000.0
)

// ShuffleTime models running the stack shuffler on a node over codeBytes
// of text.
func ShuffleTime(n *Node, codeBytes uint64) time.Duration {
	cycles := shuffleBaseCycles + shuffleCyclesPerByte*float64(codeBytes)
	s := cycles / (n.Spec.ClockHz * n.Spec.IPC)
	return time.Duration(s * float64(time.Second))
}

// PowerW returns a node's power draw with the given number of busy cores.
func (s NodeSpec) PowerW(busyCores int) float64 {
	if busyCores > s.Cores {
		busyCores = s.Cores
	}
	return s.IdleW + float64(busyCores)*s.PerCoreW
}
