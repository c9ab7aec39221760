package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ q, want float64 }{
		{0, 10}, {0.5, 25}, {1, 40}, {0.9, 37}, {1.0 / 3, 20},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v, want 7", got)
	}
}

func TestBoundArithmetic(t *testing.T) {
	if got := spread([]float64{95, 100, 105}); !near(got, 0.10) {
		t.Errorf("spread = %v, want 0.10", got)
	}
	if got := spread([]float64{0, 0}); got != 0 {
		t.Errorf("spread around a zero median = %v, want 0", got)
	}
	m := metricDef{"migrate_ms_p50", "ms", 0.10}
	if s := repeatSummary(m, []float64{98, 100, 103}); !strings.Contains(s, "inside") {
		t.Errorf("5%% spread against a 10%% bound: %s", s)
	}
	if s := repeatSummary(m, []float64{90, 100, 111}); !strings.Contains(s, "OUTSIDE") {
		t.Errorf("21%% spread against a 10%% bound: %s", s)
	}
}

func TestReferenceScaling(t *testing.T) {
	if got := refMillis(10*time.Millisecond, refNominalMs); !near(got, 10) {
		t.Errorf("a quiet machine must leave wall time alone: got %v ms for 10", got)
	}
	if got := refMillis(10*time.Millisecond, 2*refNominalMs); !near(got, 5) {
		t.Errorf("a machine at half speed must halve the time: got %v ms for 10", got)
	}
	// The kernel is a yardstick only if every call does the same work.
	before := refSink
	if ms := refKernelMs(); ms <= 0 {
		t.Fatalf("reference kernel took %v ms", ms)
	}
	first := refSink - before
	refKernelMs()
	if second := refSink - before - first; second != first {
		t.Errorf("two calls of the reference kernel computed %d and %d", first, second)
	}
}

// BENCHMARK.json restates the metric and workload tables for the driver;
// the two must not drift apart.
func TestBenchmarkJSONAgrees(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var doc struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if len(doc.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(specs))
	}
	for i, w := range doc.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the harness", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Bound != d.bound || m.Better != "lower" {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the harness", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
	}
}

// small shrinks the kv inputs so a set-up costs milliseconds of guest
// time; mt_shuffle has no size knob and keeps its own.
var small = config{seed: 7, seconds: 60, setups: 1, keys: 1500, pairs: 48}

// Every workload: two untraced ops and one traced op, oracle on. The
// staged pipeline must produce the oracle's bytes like Migrate does, and
// each workload must load the layer it was chosen for.
func TestSmoke(t *testing.T) {
	for _, sp := range specs {
		sp := sp
		t.Run(sp.name, func(t *testing.T) {
			f, err := setup(small.apply(sp), small.seed)
			if err != nil {
				t.Fatal(err)
			}
			cfg := small
			cfg.ops = 2
			res, err := f.measure(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted != 2 || res.failed != 0 {
				t.Fatalf("untraced: attempted %d, failed %d: %v", res.attempted, res.failed, res.firstErr)
			}
			for _, d := range endToEnd[1:] { // setup_s belongs to runWorkload
				if res.values[d.name] <= 0 {
					t.Errorf("%s = %v, want > 0", d.name, res.values[d.name])
				}
			}

			cfg.ops, cfg.trace = 1, true
			cfg.traceOut = filepath.Join(t.TempDir(), "spans.json")
			res, err = f.measure(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted != 2 || res.failed != 0 {
				t.Fatalf("traced: attempted %d, failed %d: %v", res.attempted, res.failed, res.firstErr)
			}
			var spans []span
			raw, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(raw, &spans); err != nil {
				t.Fatal(err)
			}
			if len(spans) == 0 || spans[0].Name != "op" || spans[0].Parent != -1 {
				t.Fatalf("span file does not start with an op root: %+v", spans)
			}
			loaded := map[mode]string{
				modeVanilla: "image.marshal_ms",
				modePreCopy: "cluster.send_recv_ms",
				modeLazy:    "criu.page_fetches_per_op",
				modeShuffle: "core.shuffle_ms",
			}[sp.mode]
			if res.values[loaded] <= 0 {
				t.Errorf("%s = %v: the workload does not load its layer", loaded, res.values[loaded])
			}
			if c := res.values["trace.coverage"]; c <= 0 {
				t.Errorf("trace.coverage = %v, want > 0", c)
			}
		})
	}
}

// A reply that differs from the oracle is a failed op: counted, reported,
// and contributing no latency sample.
func TestOracleMismatchFails(t *testing.T) {
	sp, _ := findSpec("kv_vanilla")
	f, err := setup(small.apply(sp), small.seed)
	if err != nil {
		t.Fatal(err)
	}
	f.oracle[len(f.oracle)-1] ^= 1
	cfg := small
	cfg.ops = 2
	res, err := f.measure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted != 2 || res.failed != 2 || res.firstErr == nil {
		t.Fatalf("attempted %d, failed %d, first error %v; want 2, 2 and an error", res.attempted, res.failed, res.firstErr)
	}
	if n := res.samples["migrate_ms_p50"]; n != 0 {
		t.Errorf("failed ops left %d latency samples", n)
	}
}

// The command line the driver uses: the last line of standard output is
// one JSON object carrying exactly the metric set the trace flag selects.
func TestRunPrintsContractLine(t *testing.T) {
	for _, c := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var out bytes.Buffer
		args := []string{"--workload", "kv_vanilla", "--seed", "3", "--seconds", "60", "--trace", c.trace,
			"-ops", "1", "-setups", "1", "-keys", "1500", "-script", "48",
			"-trace-out", filepath.Join(t.TempDir(), "spans.json")}
		if err := run(args, &out); err != nil {
			t.Fatalf("trace %s: %v", c.trace, err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var got struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]struct {
				Value float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
			t.Fatalf("trace %s: last line is not JSON: %v", c.trace, err)
		}
		if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
			t.Errorf("trace %s: %+v", c.trace, got)
		}
		if len(got.Metrics) != len(c.defs) {
			t.Errorf("trace %s: %d metrics printed, want %d", c.trace, len(got.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			if m, ok := got.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s missing or unit %q != %q", c.trace, d.name, m.Unit, d.unit)
			}
		}
	}
	if err := run([]string{"--workload", "nope"}, &bytes.Buffer{}); err == nil {
		t.Error("an unknown workload must be an error")
	}
}
