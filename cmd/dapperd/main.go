// Command dapperd is the fleet-level migration control plane daemon: it
// owns a set of simulated nodes (mixed SX86 Xeon-class and SARM Pi-class
// machines), a journaled queue of migration jobs, a placement policy,
// per-node concurrency bounds, node drains, and the retry/rollback
// machinery — everything in internal/fleet — and exposes it over a local
// unix socket that dapperctl's submit/status/jobs/drain-node subcommands
// speak to.
//
// Usage:
//
//	dapperd -socket dapperd.sock -journal dapperd.journal \
//	        -xeons 2 -pis 2 -cap 2 -policy least-loaded \
//	        -programs cg,mg -class S [-registry dapper.registry]
//
// The journal makes the queue durable: killing the daemon mid-queue and
// restarting it with the same -journal resumes the remaining jobs
// without loss or duplication (programs re-register from the journal;
// nodes come from the flags). See docs/fleet.md.
//
// -registry opens a persistent content-addressed checkpoint store
// (docs/registry.md) and enables clone jobs: dapperctl submit -manifest
// ID -clone N restores a stored checkpoint onto a placed node N times
// with copy-on-write page sharing. A journal holding a pending clone job
// replays only with a -registry that holds the job's manifest.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/fleet"
	"github.com/dapper-sim/dapper/internal/registry"
	"github.com/dapper-sim/dapper/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dapperd:", err)
		os.Exit(1)
	}
}

// options is the parsed daemon configuration.
type options struct {
	socket   string
	journal  string
	registry string
	xeons    int
	pis      int
	cap      int
	policy   string
	programs []string
	class    workloads.Class
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("dapperd", flag.ContinueOnError)
	socket := fs.String("socket", "dapperd.sock", "unix socket path for the control API")
	journalPath := fs.String("journal", "dapperd.journal", "append-only job journal (empty disables durability)")
	registryDir := fs.String("registry", "", "content-addressed checkpoint store directory (enables clone jobs)")
	xeons := fs.Int("xeons", 2, "number of SX86 Xeon-class nodes")
	pis := fs.Int("pis", 2, "number of SARM Pi-class nodes")
	capacity := fs.Int("cap", 2, "concurrent migration slots per node")
	policy := fs.String("policy", "least-loaded", "placement policy: least-loaded, isa-affinity, or round-robin")
	programs := fs.String("programs", "", "comma-separated workloads to pre-register (e.g. cg,mg,rediska)")
	class := fs.String("class", "S", "problem class for pre-registered workloads")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() != 0 {
		return options{}, fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	o := options{
		socket:   *socket,
		journal:  *journalPath,
		registry: *registryDir,
		xeons:    *xeons,
		pis:      *pis,
		cap:      *capacity,
		policy:   *policy,
		class:    workloads.Class(strings.ToUpper(*class)),
	}
	if *programs != "" {
		o.programs = strings.Split(*programs, ",")
	}
	if o.xeons+o.pis < 2 {
		return options{}, fmt.Errorf("need at least two nodes to migrate between (-xeons %d -pis %d)", o.xeons, o.pis)
	}
	return o, nil
}

// buildManager assembles the fleet from parsed options: xeonN/piN nodes,
// pre-registered programs, policy, journal, and (when -registry is set)
// the persistent checkpoint store behind clone jobs. The returned store
// is nil without -registry; the caller owns closing it after the
// manager stops.
func buildManager(o options) (*fleet.Manager, *registry.Store, error) {
	var store *registry.Store
	if o.registry != "" {
		var err error
		if store, err = registry.Open(o.registry, registry.Opts{}); err != nil {
			return nil, nil, err
		}
	}
	m, err := fleet.NewManager(fleet.Config{
		Journal:  o.journal,
		Policy:   o.policy,
		Registry: store,
	})
	if err != nil {
		if store != nil {
			_ = store.Close() // surfacing the NewManager error matters more
		}
		return nil, nil, err
	}
	fail := func(err error) (*fleet.Manager, *registry.Store, error) {
		if serr := m.Stop(); serr != nil {
			err = fmt.Errorf("%w (stop: %v)", err, serr)
		}
		if store != nil {
			_ = store.Close() // the original build error matters more
		}
		return nil, nil, err
	}
	for i := 0; i < o.xeons; i++ {
		if err := m.AddNode(fmt.Sprintf("xeon%d", i), cluster.XeonSpec, o.cap); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < o.pis; i++ {
		if err := m.AddNode(fmt.Sprintf("pi%d", i), cluster.PiSpec, o.cap); err != nil {
			return fail(err)
		}
	}
	for _, prog := range o.programs {
		prog = strings.TrimSpace(prog)
		if prog == "" {
			continue
		}
		// Journal replay may have re-registered it already.
		if err := m.RegisterWorkload(prog, o.class); err != nil && !strings.Contains(err.Error(), "duplicate program") {
			return fail(err)
		}
	}
	return m, store, nil
}

func run(args []string) error {
	o, err := parseFlags(args)
	if err != nil {
		return err
	}
	m, store, err := buildManager(o)
	if err != nil {
		return err
	}
	closeStore := func(err error) error {
		if store == nil {
			return err
		}
		if cerr := store.Close(); cerr != nil && err == nil {
			err = cerr
		}
		return err
	}
	if err := m.Start(); err != nil {
		return closeStore(err)
	}
	srv, err := fleet.Serve(m, o.socket)
	if err != nil {
		if serr := m.Stop(); serr != nil {
			err = fmt.Errorf("%w (stop: %v)", err, serr)
		}
		return closeStore(err)
	}
	fmt.Printf("dapperd: %d nodes, policy %s, socket %s, journal %s\n",
		o.xeons+o.pis, o.policy, o.socket, o.journal)
	if store != nil {
		st := store.Stat()
		fmt.Printf("dapperd: registry %s (%d manifests, %d chunks; clone jobs enabled)\n",
			o.registry, st.Manifests, st.Chunks)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("dapperd: shutting down (in-flight attempts drain; pending jobs stay journaled)")
	err = srv.Close()
	if serr := m.Stop(); serr != nil && err == nil {
		err = serr
	}
	err = closeStore(err)
	rep := m.Report()
	fmt.Print(rep.Text())
	return err
}
