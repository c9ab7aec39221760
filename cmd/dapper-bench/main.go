// Command dapper-bench regenerates every table and figure of the paper's
// evaluation section and prints them as text tables.
//
// Usage:
//
//	dapper-bench [-class S|A|B] [-out EXPERIMENTS-data.md] [-check stored.json|stored.md] [fig5 fig6 ... attacks | all]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/dapper-sim/dapper/internal/experiments"
	"github.com/dapper-sim/dapper/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dapper-bench:", err)
		os.Exit(1)
	}
}

type genFunc func(workloads.Class) (*experiments.Table, error)

func run(args []string) error {
	fs := flag.NewFlagSet("dapper-bench", flag.ContinueOnError)
	class := fs.String("class", "S", "problem class: S, A, or B")
	out := fs.String("out", "", "also append markdown tables to this file")
	jsonOut := fs.String("jsonout", "", "also write the generated tables as a JSON array to this file")
	check := fs.String("check", "", "compare the modeled columns of the generated tables with this stored -jsonout or -out file and fail on any difference")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var stored map[string]*experiments.Table
	if *check != "" {
		// Read first: -jsonout may name the same file.
		var err error
		if stored, err = loadStored(*check); err != nil {
			return err
		}
	}
	c := workloads.Class(strings.ToUpper(*class))
	gens := map[string]genFunc{
		"fig1":     experiments.Fig1,
		"fig5":     experiments.Fig5,
		"fig6":     experiments.Fig6,
		"fig7":     experiments.Fig7,
		"fig8":     experiments.Fig8,
		"fig9":     experiments.Fig9,
		"fig7x":    experiments.Fig7x,
		"fig10":    experiments.Fig10,
		"fig11":    experiments.Fig11,
		"fleet":    experiments.Fleet,
		"registry": experiments.Registry,
		"attacks": func(workloads.Class) (*experiments.Table, error) {
			return experiments.Attacks()
		},
	}
	order := []string{"fig1", "fig5", "fig6", "fig7", "fig7x", "fig8", "fig9", "fig10", "fig11", "fleet", "registry", "attacks"}

	want := fs.Args()
	if len(want) == 0 || (len(want) == 1 && want[0] == "all") {
		want = order
	}
	var md strings.Builder
	var tables []*experiments.Table
	for _, id := range want {
		gen, ok := gens[id]
		if !ok {
			return fmt.Errorf("unknown experiment %q (have %s)", id, strings.Join(order, " "))
		}
		tbl, err := gen(c)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(tbl.String())
		md.WriteString(tbl.Markdown())
		tables = append(tables, tbl)
	}
	if stored != nil {
		var diffs []string
		for _, tbl := range tables {
			want, ok := stored[tbl.ID]
			if !ok {
				return fmt.Errorf("%s has no table %q", *check, tbl.ID)
			}
			diffs = append(diffs, experiments.DiffModeled(tbl, want)...)
		}
		if len(diffs) > 0 {
			return fmt.Errorf("modeled columns differ from %s:\n  %s", *check, strings.Join(diffs, "\n  "))
		}
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if *out != "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		_, werr := f.WriteString(md.String())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

// loadStored reads the tables of a -jsonout file, or of a markdown file
// written by -out, keyed by table ID.
func loadStored(path string) (map[string]*experiments.Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var tables []*experiments.Table
	if strings.HasSuffix(path, ".md") {
		tables, err = experiments.ParseMarkdown(string(data))
	} else {
		err = json.Unmarshal(data, &tables)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]*experiments.Table, len(tables))
	for _, t := range tables {
		out[t.ID] = t
	}
	return out, nil
}
