package fleet

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/dapper-sim/dapper/internal/obs"
)

// NodeReport is one node's row of the fleet report.
type NodeReport struct {
	Name     string `json:"name"`
	Arch     string `json:"arch"`
	Capacity int    `json:"capacity"`
	Running  int    `json:"running"`
	// HighWater is the most concurrent migrations ever observed — by
	// construction never above Capacity.
	HighWater int    `json:"high_water"`
	Done      uint64 `json:"done"`
	Failed    uint64 `json:"failed_attempts"`
	// Utilization is busy-slot time over capacity-time since Start: 1.0
	// means every slot was occupied the whole time.
	Utilization float64 `json:"utilization"`
	Drained     bool    `json:"drained,omitempty"`
}

// FleetReport is the obs-backed control-plane summary dapperctl prints
// and the bench harness archives.
type FleetReport struct {
	Policy string       `json:"policy"`
	Uptime float64      `json:"uptime_s"`
	Nodes  []NodeReport `json:"nodes"`

	Submitted uint64 `json:"jobs_submitted"`
	Resumed   uint64 `json:"jobs_resumed,omitempty"`
	Done      uint64 `json:"jobs_done"`
	FailedJ   uint64 `json:"jobs_failed"`
	Pending   int    `json:"jobs_pending"`
	Running   int    `json:"jobs_running"`
	Retries   uint64 `json:"retries"`
	Rollbacks uint64 `json:"rollbacks"`
	Corrupt   uint64 `json:"corrupt_outputs"`
	Drains    uint64 `json:"drains,omitempty"`

	// Migration latency percentiles (modeled migration time) across
	// completed jobs, from the fleet.migration_ns histogram.
	MigrationP50 time.Duration `json:"migration_p50_ns"`
	MigrationP95 time.Duration `json:"migration_p95_ns"`
	MigrationP99 time.Duration `json:"migration_p99_ns"`
	DowntimeP50  time.Duration `json:"downtime_p50_ns"`
	DowntimeP95  time.Duration `json:"downtime_p95_ns"`
	DowntimeP99  time.Duration `json:"downtime_p99_ns"`

	MigratedBytes uint64 `json:"migrated_bytes"`

	// Obs is the full fleet telemetry report: every counter the control
	// plane and the migrations underneath it recorded.
	Obs *obs.Report `json:"obs,omitempty"`
}

// Report builds the current fleet report.
func (m *Manager) Report() *FleetReport {
	m.mu.Lock()
	uptime := time.Duration(0)
	if !m.start.IsZero() {
		//lint:ignore wallclock uptime is a host-time figure by definition, reported separately from modeled breakdowns
		uptime = time.Since(m.start)
	}
	pending, running := 0, 0
	for _, j := range m.jobs {
		switch j.State {
		case Pending:
			pending++
		case Running:
			running++
		}
	}
	nodes := m.nodeList()
	m.mu.Unlock()

	rep := &FleetReport{
		Policy:    m.cfg.Policy,
		Uptime:    uptime.Seconds(),
		Pending:   pending,
		Running:   running,
		Submitted: m.reg.Counter("fleet.jobs_submitted").Value(),
		Resumed:   m.reg.Counter("fleet.jobs_resumed").Value(),
		Done:      m.reg.Counter("fleet.jobs_done").Value(),
		FailedJ:   m.reg.Counter("fleet.jobs_failed").Value(),
		Retries:   m.reg.Counter("fleet.retries").Value(),
		Rollbacks: m.reg.Counter("fleet.rollbacks").Value(),
		Corrupt:   m.reg.Counter("fleet.corrupt_outputs").Value(),
		Drains:    m.reg.Counter("fleet.drains").Value(),

		MigrationP50:  m.reg.Histogram("fleet.migration_ns").Quantile(0.50),
		MigrationP95:  m.reg.Histogram("fleet.migration_ns").Quantile(0.95),
		MigrationP99:  m.reg.Histogram("fleet.migration_ns").Quantile(0.99),
		DowntimeP50:   m.reg.Histogram("fleet.downtime_ns").Quantile(0.50),
		DowntimeP95:   m.reg.Histogram("fleet.downtime_ns").Quantile(0.95),
		DowntimeP99:   m.reg.Histogram("fleet.downtime_ns").Quantile(0.99),
		MigratedBytes: m.reg.Counter("fleet.migrated_bytes").Value(),

		Obs: m.reg.Report(),
	}
	for _, n := range nodes {
		util := 0.0
		if uptime > 0 && n.Capacity > 0 {
			util = float64(n.busyNs.Load()) / (float64(uptime) * float64(n.Capacity))
		}
		rep.Nodes = append(rep.Nodes, NodeReport{
			Name:        n.Name,
			Arch:        n.Arch().String(),
			Capacity:    n.Capacity,
			Running:     n.Running(),
			HighWater:   n.HighWater(),
			Done:        n.done.Load(),
			Failed:      n.failed.Load(),
			Utilization: util,
			Drained:     n.Drained(),
		})
	}
	return rep
}

// JSON renders the report machine-readably.
func (r *FleetReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Text renders the report for terminals.
func (r *FleetReport) Text() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet: policy=%s uptime=%.1fs jobs %d submitted / %d done / %d failed / %d pending / %d running\n",
		r.Policy, r.Uptime, r.Submitted, r.Done, r.FailedJ, r.Pending, r.Running)
	fmt.Fprintf(&sb, "retries=%d rollbacks=%d corrupt=%d migrated=%dB\n", r.Retries, r.Rollbacks, r.Corrupt, r.MigratedBytes)
	fmt.Fprintf(&sb, "migration p50=%v p95=%v p99=%v  downtime p50=%v p95=%v p99=%v\n",
		r.MigrationP50, r.MigrationP95, r.MigrationP99, r.DowntimeP50, r.DowntimeP95, r.DowntimeP99)
	for _, n := range r.Nodes {
		status := ""
		if n.Drained {
			status = " DRAINED"
		}
		fmt.Fprintf(&sb, "node %-10s %s cap=%d running=%d peak=%d done=%d failed=%d util=%.2f%s\n",
			n.Name, n.Arch, n.Capacity, n.Running, n.HighWater, n.Done, n.Failed, n.Utilization, status)
	}
	return sb.String()
}
