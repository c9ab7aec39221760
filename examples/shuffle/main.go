// Shuffle: DAPPER's stack re-randomization as a security demo. A
// vulnerable server (stack buffer overflow, as in the paper's Min-DOP case
// study) is attacked with a payload crafted from its binary's frame
// layout; the attack succeeds. The server is then re-randomized — both
// offline (shuffled binary) and live (an in-place cluster.Migrate with
// Shuffle) — and the stale payload misses.
package main

import (
	"fmt"
	"log"

	"github.com/dapper-sim/dapper/internal/attack"
	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/core"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/kernel"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func fire(bin *compiler.Binary, payload []byte) attack.Result {
	k := kernel.New(kernel.Config{})
	p, err := k.StartProcess(bin.LoadSpec("/bin/vuln." + bin.Arch.String()))
	if err != nil {
		return attack.Result{Crashed: true}
	}
	return attack.Fire(k, p, payload)
}

func verdict(r attack.Result) string {
	switch {
	case r.Pwned:
		return "PWNED (full chain)"
	case r.Escalated:
		return "ESCALATED"
	case r.Crashed:
		return "crashed (attack failed)"
	case r.Hung:
		return "hung (attack failed)"
	default:
		return "no effect (attack failed)"
	}
}

func run() error {
	pair, err := compiler.Compile(attack.VulnServerSrc)
	if err != nil {
		return err
	}
	payload, err := attack.BuildPayload(pair.Meta, "handle", "buf", isa.SX86,
		attack.MinDOPTargets(isa.SX86), attack.Counters())
	if err != nil {
		return err
	}
	fmt.Printf("crafted a %d-byte DOP payload from the binary's stack maps\n\n", len(payload))

	fmt.Println("1) unprotected server:")
	fmt.Println("   ->", verdict(fire(pair.X86, payload)))

	fmt.Println("\n2) offline-shuffled variants (5 seeds):")
	for seed := int64(1); seed <= 5; seed++ {
		shuffled, report, err := core.ShuffleBinary(pair.X86, seed)
		if err != nil {
			return err
		}
		fmt.Printf("   seed %d (%.1f bits of entropy) -> %s\n",
			seed, report.AvgBitsApp, verdict(fire(shuffled, payload)))
	}

	// 3) Live re-randomization: an in-place migration of the RUNNING
	// server, re-drawing its stack layout, then attack.
	fmt.Println("\n3) live re-randomization of a running server:")
	n := cluster.NewNode(cluster.XeonSpec)
	n.Install("vuln", pair)
	p, err := n.Start("vuln")
	if err != nil {
		return err
	}
	// Serve one benign request so the server has warm state.
	p.PushInput(make([]byte, 16))
	for i := 0; i < 100000; i++ {
		st, err := n.K.Step(p)
		if err != nil {
			return err
		}
		if st.Blocked == 1 && p.PendingInput() == 0 {
			break
		}
	}
	res, err := cluster.Migrate(n, n, p, pair.Meta, cluster.MigrateOpts{Shuffle: true, ShuffleSeed: 99})
	if err != nil {
		return err
	}
	fmt.Printf("   migrated in place with a fresh layout (copy=%v); firing stale payload...\n", res.Breakdown.Copy)
	r := attack.Fire(n.K, res.Proc, payload)
	fmt.Println("   ->", verdict(r))
	fmt.Printf("   server console: %q\n", r.Output)
	return nil
}
