package experiments_test

import (
	"strings"
	"testing"

	"github.com/dapper-sim/dapper/internal/experiments"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// TestEveryFigureGenerates smoke-runs every table generator at class S
// and sanity-checks structure — the guarantee that `dapper-bench all`
// cannot rot.
func TestEveryFigureGenerates(t *testing.T) {
	gens := map[string]func(workloads.Class) (*experiments.Table, error){
		"fig1":  experiments.Fig1,
		"fig5":  experiments.Fig5,
		"fig6":  experiments.Fig6,
		"fig7":  experiments.Fig7,
		"fig7x": experiments.Fig7x,
		"fig8":  experiments.Fig8,
		"fig9":  experiments.Fig9,
		"fig10": experiments.Fig10,
		"fig11": experiments.Fig11,
	}
	for id, gen := range gens {
		id, gen := id, gen
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			tbl, err := gen(workloads.ClassS)
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != id {
				t.Errorf("table id %q", tbl.ID)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("no rows")
			}
			for i, r := range tbl.Rows {
				if len(r) != len(tbl.Header) {
					t.Errorf("row %d has %d cells, header has %d", i, len(r), len(tbl.Header))
				}
			}
			txt := tbl.String()
			if !strings.Contains(txt, tbl.Title) {
				t.Error("rendering lost the title")
			}
			md := tbl.Markdown()
			if strings.Count(md, "|") < len(tbl.Header) {
				t.Error("markdown rendering malformed")
			}
		})
	}
}

// TestFigureShapes asserts the key qualitative claims the tables carry.
func TestFigureShapes(t *testing.T) {
	t.Run("fig10-arm-below-x86", func(t *testing.T) {
		t.Parallel()
		tbl, err := experiments.Fig10(workloads.ClassS)
		if err != nil {
			t.Fatal(err)
		}
		last := tbl.Rows[len(tbl.Rows)-1]
		if last[0] != "AVERAGE" {
			t.Fatalf("no average row: %v", last)
		}
		if !(parseF(t, last[2]) < parseF(t, last[1])) {
			t.Errorf("arm bits %s not below x86 bits %s", last[2], last[1])
		}
	})
	t.Run("fig11-majority-reduction", func(t *testing.T) {
		t.Parallel()
		tbl, err := experiments.Fig11(workloads.ClassS)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tbl.Rows {
			if r[0] == "AVERAGE" {
				if v := parseF(t, r[4]); v < 40 {
					t.Errorf("average reduction %s below 40%%", r[4])
				}
			}
		}
	})
	t.Run("fig8-three-pis-in-band", func(t *testing.T) {
		t.Parallel()
		tbl, err := experiments.Fig8(workloads.ClassS)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tbl.Rows {
			if r[1] != "3" {
				continue
			}
			eff := parseF(t, r[4])
			tput := parseF(t, r[7])
			if eff < 15 || eff > 45 {
				t.Errorf("%s: 3-Pi efficiency %.1f%% outside band", r[0], eff)
			}
			if tput < 30 || tput > 60 {
				t.Errorf("%s: 3-Pi throughput %.1f%% outside band", r[0], tput)
			}
		}
	})
	t.Run("fig7x-precopy-beats-vanilla", func(t *testing.T) {
		t.Parallel()
		tbl, err := experiments.Fig7x(workloads.ClassS)
		if err != nil {
			t.Fatal(err)
		}
		// The acceptance row: on the largest rediska DB, pre-copy downtime
		// must be strictly below vanilla's stop-and-copy downtime.
		downtime := map[string]float64{}
		for _, r := range tbl.Rows {
			if r[0] == "rediska-12000keys" {
				downtime[r[1]] = parseF(t, r[2])
			}
		}
		v, okV := downtime["vanilla"]
		p, okP := downtime["precopy"]
		if !okV || !okP {
			t.Fatalf("missing rediska-12000keys rows: %v", downtime)
		}
		if p >= v {
			t.Errorf("pre-copy downtime %.1fms not below vanilla %.1fms", p, v)
		}
		for _, r := range tbl.Rows {
			if r[1] == "precopy" && parseF(t, r[4]) < 2 {
				t.Errorf("%s: pre-copy ran only %s round(s)", r[0], r[4])
			}
		}
		// Every row carries its migration's telemetry report, and the
		// span tree is complete: the table's time columns were read from
		// it, so it must at least name the root phases.
		if len(tbl.Telemetry) != len(tbl.Rows) {
			t.Errorf("%d telemetry reports for %d rows", len(tbl.Telemetry), len(tbl.Rows))
		}
		for _, r := range tbl.Rows {
			rep := tbl.Telemetry[r[0]+"/"+r[1]]
			if rep == nil {
				t.Errorf("%s/%s: no telemetry report", r[0], r[1])
				continue
			}
			if _, ok := rep.Span("migration"); !ok {
				t.Errorf("%s/%s: telemetry lacks the migration span", r[0], r[1])
			}
			if r[1] == "lazy" && rep.Histograms["fault.service_ns"].Count == 0 {
				t.Errorf("%s/lazy: empty fault-service histogram", r[0])
			}
			if r[1] == "precopy" && rep.Counters["precopy.rounds"] < 2 {
				t.Errorf("%s/precopy: precopy.rounds = %d", r[0], rep.Counters["precopy.rounds"])
			}
		}
	})
	t.Run("attacks-defeated", func(t *testing.T) {
		t.Parallel()
		tbl, err := experiments.Attacks()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tbl.Rows {
			switch {
			case r[2] == "none" && !strings.HasPrefix(r[3], "1/1"):
				t.Errorf("unprotected attack failed: %v", r)
			case r[2] == "cross-ISA migration" && r[3] != "0/1":
				t.Errorf("migration did not defeat the payload: %v", r)
			}
		}
	})
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	var sign float64 = 1
	i := 0
	if i < len(s) && s[i] == '-' {
		sign = -1
		i++
	}
	frac := 0.0
	div := 1.0
	seenDot := false
	for ; i < len(s); i++ {
		c := s[i]
		if c == '.' {
			seenDot = true
			continue
		}
		if c < '0' || c > '9' {
			t.Fatalf("bad float %q", s)
		}
		if seenDot {
			div *= 10
			frac += float64(c-'0') / div
		} else {
			v = v*10 + float64(c-'0')
		}
	}
	return sign * (v + frac)
}

// TestStoredTableRoundTrip: a table written as markdown reads back with
// the same modeled cells, and DiffModeled sees a changed modeled cell but
// not a changed host-measured one — the two properties `dapper-bench
// -check` rests on.
func TestStoredTableRoundTrip(t *testing.T) {
	tbl, err := experiments.Fig5(workloads.ClassS)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := experiments.ParseMarkdown("preamble\n\n" + tbl.Markdown() + tbl.Markdown())
	if err != nil || len(parsed) != 2 {
		t.Fatalf("parsed %d tables, err %v", len(parsed), err)
	}
	back := parsed[1]
	if back.ID != tbl.ID || back.Title != tbl.Title || len(back.Notes) != len(tbl.Notes) {
		t.Errorf("read back %q %q with %d notes", back.ID, back.Title, len(back.Notes))
	}
	if diffs := experiments.DiffModeled(tbl, back); len(diffs) != 0 {
		t.Errorf("round trip differs: %v", diffs)
	}
	host := len(tbl.Header) - 1 // recode-host(ms)
	back.Rows[0][host] += "9"
	if diffs := experiments.DiffModeled(tbl, back); len(diffs) != 0 {
		t.Errorf("a host-measured cell was compared: %v", diffs)
	}
	back.Rows[0][1] += "9"
	if diffs := experiments.DiffModeled(tbl, back); len(diffs) != 1 {
		t.Errorf("a changed modeled cell gave %d differences: %v", len(diffs), diffs)
	}
	back.Rows = back.Rows[1:]
	if diffs := experiments.DiffModeled(tbl, back); len(diffs) != 1 {
		t.Errorf("a missing row gave %d differences: %v", len(diffs), diffs)
	}
}
