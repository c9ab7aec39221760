package experiments

import (
	"fmt"
	"time"

	"github.com/dapper-sim/dapper/internal/attack"
	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/gadget"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// figSecurityBenchmarks are the programs shuffled and scanned in
// Figs. 9-11 (rediska and nginz stand in for the paper's Redis and Nginx).
var figSecurityBenchmarks = []string{"cg", "mg", "ep", "ft", "is", "linpack", "dhrystone", "kmeans", "rediska", "nginz"}

// Fig9 regenerates the stack-shuffle time breakdown.
func Fig9(c workloads.Class) (*Table, error) {
	t := &Table{
		ID:     "fig9",
		Title:  "stack-shuffle (SBI + image rewrite) time per benchmark",
		Header: []string{"benchmark", "arch", "code(KiB)", "patched(B)", "modeled(ms)", "host(ms)"},
	}
	xeon := cluster.NewNode(cluster.XeonSpec)
	pi := cluster.NewNode(cluster.PiSpec)
	for _, name := range figSecurityBenchmarks {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		pair, err := workloads.CompilePair(w, c)
		if err != nil {
			return nil, err
		}
		for _, arch := range []isa.Arch{isa.SX86, isa.SARM} {
			bin := pair.ByArch(arch)
			host, report, err := timeShuffle(bin)
			if err != nil {
				return nil, fmt.Errorf("fig9 %s %v: %w", name, arch, err)
			}
			node := xeon
			if arch == isa.SARM {
				node = pi
			}
			modeled := cluster.ShuffleTime(node, uint64(len(bin.Text)))
			t.Rows = append(t.Rows, []string{
				name, arch.String(), kb(uint64(len(bin.Text))),
				fmt.Sprintf("%d", report.Patched), ms(modeled), fmt.Sprintf("%.2f", host),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper: avg 573 ms on x86, 3.2 s on arm; shuffle time proportional to code size",
		"modeled = code-size-linear cost on that node; host = this Go implementation's wall time")
	return t, nil
}

// timeShuffle measures the host wall time (ms) of one ShuffleBinary run.
func timeShuffle(bin *compiler.Binary) (float64, *core.ShuffleReport, error) {
	start := time.Now()
	_, report, err := core.ShuffleBinary(bin, 7)
	return float64(time.Since(start).Microseconds()) / 1000, report, err
}

// Fig10 regenerates the entropy measurement.
func Fig10(c workloads.Class) (*Table, error) {
	t := &Table{
		ID:     "fig10",
		Title:  "average bits of entropy introduced by stack shuffling",
		Header: []string{"benchmark", "x86 bits", "arm bits", "x86 frames", "arm excluded-slots"},
	}
	var sumX, sumA float64
	for _, name := range figSecurityBenchmarks {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		pair, err := workloads.CompilePair(w, c)
		if err != nil {
			return nil, err
		}
		_, rx, err := core.ShuffleBinary(pair.X86, 11)
		if err != nil {
			return nil, err
		}
		_, ra, err := core.ShuffleBinary(pair.ARM, 11)
		if err != nil {
			return nil, err
		}
		excluded := 0
		for _, f := range ra.PerFunc {
			excluded += f.Excluded
		}
		t.Rows = append(t.Rows, []string{
			name,
			fmt.Sprintf("%.2f", rx.AvgBitsApp), fmt.Sprintf("%.2f", ra.AvgBitsApp),
			fmt.Sprintf("%d", len(rx.PerFunc)), fmt.Sprintf("%d", excluded),
		})
		sumX += rx.AvgBitsApp
		sumA += ra.AvgBitsApp
	}
	n := float64(len(figSecurityBenchmarks))
	t.Rows = append(t.Rows, []string{"AVERAGE", fmt.Sprintf("%.2f", sumX/n), fmt.Sprintf("%.2f", sumA/n), "", ""})
	t.Notes = append(t.Notes,
		"paper: x86 avg 4.74 bits vs arm avg 3.33 bits — arm lower because LDP/STP pair-accessed slots are excluded",
		"4 bits => 1+(2*4-1)!! = 106 possible frames, 0.125 per-allocation guess probability")
	return t, nil
}

// Fig11 regenerates the ROP-gadget attack-surface comparison against the
// Popcorn-style (in-process migration runtime) baseline.
func Fig11(c workloads.Class) (*Table, error) {
	t := &Table{
		ID:     "fig11",
		Title:  "ROP gadget reduction vs Popcorn-Linux-style in-process runtime",
		Header: []string{"benchmark", "arch", "dapper gadgets", "popcorn gadgets", "reduction %"},
	}
	var sumX, sumA float64
	var nX, nA int
	for _, name := range figSecurityBenchmarks {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		src := w.Source(c)
		dapperPair, err := workloads.CompilePair(w, c)
		if err != nil {
			return nil, err
		}
		popcornPair, err := gadget.PopcornPair(src)
		if err != nil {
			return nil, fmt.Errorf("fig11 %s: %w", name, err)
		}
		for _, arch := range []isa.Arch{isa.SX86, isa.SARM} {
			cmp := gadget.CompareBinaries(dapperPair.ByArch(arch), popcornPair.ByArch(arch))
			t.Rows = append(t.Rows, []string{
				name, arch.String(),
				fmt.Sprintf("%d", cmp.Dapper), fmt.Sprintf("%d", cmp.Popcorn),
				fmt.Sprintf("%.1f", cmp.ReductionPct),
			})
			if arch == isa.SX86 {
				sumX += cmp.ReductionPct
				nX++
			} else {
				sumA += cmp.ReductionPct
				nA++
			}
		}
	}
	t.Rows = append(t.Rows, []string{"AVERAGE", "sx86", "", "", fmt.Sprintf("%.1f", sumX/float64(nX))})
	t.Rows = append(t.Rows, []string{"AVERAGE", "sarm", "", "", fmt.Sprintf("%.1f", sumA/float64(nA))})
	t.Notes = append(t.Notes,
		"paper: average reduction 59.28% (x86) and 71.91% (arm) over Popcorn Linux binaries")
	return t, nil
}

// Attacks regenerates the §IV-B security case studies.
func Attacks() (*Table, error) {
	t := &Table{
		ID:     "attacks",
		Title:  "security case studies: DOP/BOPC payloads vs DAPPER policies",
		Header: []string{"scenario", "payload", "defense", "success rate"},
	}
	pair, err := compiler.Compile(attack.VulnServerSrc)
	if err != nil {
		return nil, err
	}
	fire := func(bin *compiler.Binary, payload []byte) attack.Result {
		k := kernel.New(kernel.Config{})
		p, err := k.StartProcess(bin.LoadSpec("/bin/vuln." + bin.Arch.String()))
		if err != nil {
			return attack.Result{Crashed: true}
		}
		return attack.Fire(k, p, payload)
	}
	rate := func(hits, total int) string { return fmt.Sprintf("%d/%d", hits, total) }

	// 1. Min-DOP vs unprotected.
	dop, err := attack.BuildPayload(pair.Meta, "handle", "buf", isa.SX86, attack.MinDOPTargets(isa.SX86), attack.Counters())
	if err != nil {
		return nil, err
	}
	res := fire(pair.X86, dop)
	t.Rows = append(t.Rows, []string{"min-dop", "admin overwrite", "none", rate(b2i(res.Escalated), 1)})

	// 2. Min-DOP vs stack shuffling, 25 variants.
	hits := 0
	const trials = 25
	for seed := int64(1); seed <= trials; seed++ {
		sh, _, err := core.ShuffleBinary(pair.X86, seed)
		if err != nil {
			return nil, err
		}
		if fire(sh, dop).Escalated {
			hits++
		}
	}
	t.Rows = append(t.Rows, []string{"min-dop", "admin overwrite", "stack shuffling", rate(hits, trials)})

	// 3. BOPC two-target chain vs shuffling.
	bopc, err := attack.BuildPayload(pair.Meta, "handle", "buf", isa.SX86, attack.BOPCTargets(), attack.Counters())
	if err != nil {
		return nil, err
	}
	res = fire(pair.X86, bopc)
	t.Rows = append(t.Rows, []string{"bopc", "admin+key chain", "none", rate(b2i(res.Pwned), 1)})
	hits = 0
	for seed := int64(50); seed < 50+trials; seed++ {
		sh, _, err := core.ShuffleBinary(pair.X86, seed)
		if err != nil {
			return nil, err
		}
		if fire(sh, bopc).Pwned {
			hits++
		}
	}
	t.Rows = append(t.Rows, []string{"bopc", "admin+key chain", "stack shuffling", rate(hits, trials)})

	// 4. Min-DOP vs cross-ISA migration.
	f := boot("vuln", pair)
	p, err := f.xeon.Start("vuln")
	if err != nil {
		return nil, err
	}
	p.PushInput(workloads.Words(1, 0)) // benign
	if err := f.drain(p); err != nil {
		return nil, err
	}
	var out attack.Result
	if _, _, err := f.migrate(p, modeVanilla, nil, func(dst *kernel.Process) error {
		out = attack.Fire(f.pi.K, dst, dop)
		return nil
	}); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"min-dop", "x86-layout payload", "cross-ISA migration", rate(b2i(out.Escalated), 1)})
	t.Notes = append(t.Notes,
		"paper: shuffling breaks DOP gadget chaining/dispatching; cross-ISA rewriting relocates all live values")
	return t, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Fig1 summarizes the qualitative complexity/extensibility comparison: the
// transformation logic's footprint inside vs outside the target's address
// space.
func Fig1(c workloads.Class) (*Table, error) {
	t := &Table{
		ID:     "fig1",
		Title:  "attack-surface inventory: where the transformation logic lives",
		Header: []string{"system", "in-process additions", "text bytes (nginz)", "external components"},
	}
	w, err := workloads.Get("nginz")
	if err != nil {
		return nil, err
	}
	pair, err := workloads.CompilePair(w, c)
	if err != nil {
		return nil, err
	}
	popcorn, err := gadget.PopcornPair(w.Source(c))
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		"dapper", "equivalence-point checkers only",
		fmt.Sprintf("%d", len(pair.X86.Text)),
		"monitor + rewriter + CRIU (outside the process)",
	})
	t.Rows = append(t.Rows, []string{
		"popcorn-style", "full migration runtime linked in",
		fmt.Sprintf("%d", len(popcorn.X86.Text)),
		"modified kernel (page sharing)",
	})
	return t, nil
}
