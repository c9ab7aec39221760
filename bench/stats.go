package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric. bound is the share of the
// baseline median by which the metric may worsen before a change counts
// as a regression; per-layer metrics carry no bound (0).
type metricDef struct {
	name  string
	unit  string
	bound float64
}

// endToEnd lists the gated metrics, the same five on every workload, all
// lower-is-better. BENCHMARK.json repeats this table; the test suite
// checks the two agree.
var endToEnd = []metricDef{
	{"setup_s", "s", 0.25},
	{"migrate_ms_p50", "ms", 0.25},
	{"serve_ms_p50", "ms", 0.25},
	{"wire_bytes_per_op", "B", 0.005},
	{"alloc_mb_per_op", "MB", 0.02},
}

// perLayer lists the ledger metrics of the traced pass, layer = package
// name. Entries that do not apply to a workload read 0 there.
var perLayer = []metricDef{
	{name: "monitor.pause_ms", unit: "ms"},
	{name: "monitor.resume_ms", unit: "ms"},
	{name: "criu.clone_ms", unit: "ms"},
	{name: "criu.dump_ms", unit: "ms"},
	{name: "criu.dump_mb_per_s", unit: "MB/s"},
	{name: "criu.dump_alloc_mb", unit: "MB"},
	{name: "criu.dump_incr_ms", unit: "ms"},
	{name: "criu.delta_pages_per_op", unit: "count"},
	{name: "criu.advance_base_ms", unit: "ms"},
	{name: "criu.flatten_ms", unit: "ms"},
	{name: "criu.restore_ms", unit: "ms"},
	{name: "criu.restore_mb_per_s", unit: "MB/s"},
	{name: "criu.restore_alloc_mb", unit: "MB"},
	{name: "criu.lazy_setup_ms", unit: "ms"},
	{name: "criu.page_fetch_us", unit: "us"},
	{name: "criu.page_fetches_per_op", unit: "count"},
	{name: "criu.page_bytes_per_op", unit: "B"},
	{name: "criu.page_retries_per_op", unit: "count"},
	{name: "imgcheck.verify_ms", unit: "ms"},
	{name: "imgcheck.target_binary_ms", unit: "ms"},
	{name: "core.rewrite_ms", unit: "ms"},
	{name: "core.rewrite_alloc_mb", unit: "MB"},
	{name: "core.shuffle_ms", unit: "ms"},
	{name: "image.marshal_ms", unit: "ms"},
	{name: "image.unmarshal_ms", unit: "ms"},
	{name: "image.marshal_alloc_mb", unit: "MB"},
	{name: "image.bytes_per_op", unit: "B"},
	{name: "imgproto.compress_ms", unit: "ms"},
	{name: "imgproto.decompress_ms", unit: "ms"},
	{name: "imgproto.ratio", unit: "x"},
	{name: "cluster.listen_ms", unit: "ms"},
	{name: "cluster.send_recv_ms", unit: "ms"},
	{name: "cluster.rounds_per_op", unit: "count"},
	{name: "cluster.migrate_ms_p90", unit: "ms"},
	{name: "cluster.staged_ms", unit: "ms"},
	{name: "cluster.orchestration_ms", unit: "ms"},
	{name: "vm.between_rounds_ms", unit: "ms"},
	{name: "vm.guest_mcycles_per_s", unit: "Mcycles/s"},
	{name: "vm.serve_ms_p90", unit: "ms"},
	{name: "kernel.reap_ms", unit: "ms"},
	{name: "runtime.gc_ms", unit: "ms"},
	{name: "trace.coverage", unit: "ratio"},
	{name: "trace.overhead_pct", unit: "%"},
	{name: "trace.ref_kernel_ms", unit: "ms"},
}

// percentile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics; 0 for an empty sample. xs is
// not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// spread is the full range of xs as a share of its median: the figure
// -repeat holds against a metric's bound.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return 0
	}
	return (percentile(xs, 1) - percentile(xs, 0)) / med
}

// repeatSummary renders one -repeat line: min/median/max of a metric
// across repeats and whether their spread stays inside the bound.
func repeatSummary(m metricDef, xs []float64) string {
	verdict := "inside"
	if spread(xs) > m.bound {
		verdict = "OUTSIDE"
	}
	return fmt.Sprintf("%-18s min %.4f  median %.4f  max %.4f %-3s spread %.2f%% %s bound %.1f%% (n=%d)",
		m.name, percentile(xs, 0), median(xs), percentile(xs, 1), m.unit, 100*spread(xs), verdict, 100*m.bound, len(xs))
}
