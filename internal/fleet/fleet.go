// Package fleet is the migration control plane: the layer that turns
// cluster.Migrate — a one-shot library call moving one process between
// two nodes — into a managed fleet of simulated machines with many
// migrations in flight.
//
// A Manager owns:
//
//   - a set of named nodes (mixed SX86/SARM cluster.Nodes with per-node
//     migration-slot capacities, and a fleet-wide bound on attempts in
//     flight, all counted under the manager lock);
//   - a job queue journaled to disk (see journal.go), so a restarted
//     daemon resumes its queue without loss or duplication; a job
//     migrates a process, or restores a registry checkpoint onto a node
//     as N clones (see clone.go), through one lifecycle;
//   - a placement policy function (least-loaded, isa-affinity,
//     round-robin — see placement.go) that picks each job's destination;
//   - drain semantics for planned maintenance: a drained node takes no
//     new placements;
//   - retry with exponential backoff plus rollback-to-source on
//     mid-migration failure (see executor.go), exercised
//     deterministically by a job's FaultPlan, one criu.FaultSpec;
//   - an obs.Registry-backed fleet report: per-node utilization,
//     migration latency percentiles, retry and rollback counts (see
//     report.go).
//
// cmd/dapperd wraps a Manager in a daemon speaking newline-delimited
// JSON over a local socket (server.go/client.go/api.go), and dapperctl's
// submit/status/jobs/drain-node subcommands are clients of that socket.
// docs/fleet.md walks through the architecture and the job lifecycle
// state machine.
package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/dapper-sim/dapper/internal/cluster"
	"github.com/dapper-sim/dapper/internal/compiler"
	"github.com/dapper-sim/dapper/internal/isa"
	"github.com/dapper-sim/dapper/internal/obs"
	"github.com/dapper-sim/dapper/internal/registry"
	"github.com/dapper-sim/dapper/internal/updatecheck"
	"github.com/dapper-sim/dapper/internal/workloads"
)

// Config configures a Manager.
type Config struct {
	// Journal is the path of the append-only job journal; empty runs
	// in-memory only (no durability, no resume).
	Journal string
	// Policy names the placement policy (see NewPlacement); empty
	// selects least-loaded.
	Policy string
	// MaxJobs bounds migrations in flight fleet-wide; 0 derives the
	// bound from the sum of node capacities at Start.
	MaxJobs int
	// RetryBase is the first retry's backoff (default 10ms), doubling
	// per attempt up to RetryMax (default 1s).
	RetryBase time.Duration
	RetryMax  time.Duration
	// Registry is the persistent content-addressed checkpoint store
	// clone jobs restore from (see JobSpec.Manifest). Required to submit
	// a clone job, and to replay a journal holding a pending one; plain
	// migration jobs ignore it.
	Registry *registry.Store
}

func (c Config) withDefaults() Config {
	if c.Policy == "" {
		c.Policy = "least-loaded"
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 10 * time.Millisecond
	}
	if c.RetryMax <= 0 {
		c.RetryMax = time.Second
	}
	return c
}

// NodeState couples a cluster node with its control-plane state:
// capacity accounting and drain status. The gauges are atomic so Report
// and tests read them without the manager lock; slots change only under
// it (see Manager.inflight).
type NodeState struct {
	Name     string
	Node     *cluster.Node
	Capacity int

	running   atomic.Int64
	highWater atomic.Int64
	busyNs    atomic.Int64
	done      atomic.Uint64
	failed    atomic.Uint64

	drained atomic.Bool
}

// Arch returns the node's ISA.
func (n *NodeState) Arch() isa.Arch { return n.Node.Spec.Arch }

// Running returns the number of migrations currently holding one of the
// node's slots (as source or destination).
func (n *NodeState) Running() int { return int(n.running.Load()) }

// HighWater returns the most slots ever held at once — the figure the
// tests pin against Capacity.
func (n *NodeState) HighWater() int { return int(n.highWater.Load()) }

// Drained reports whether the node is draining (no new placements).
func (n *NodeState) Drained() bool { return n.drained.Load() }

// slots are the nodes whose migration slots one attempt holds: a
// migration's source and destination, a clone job's destination alone.
type slots []*NodeState

// held builds an attempt's slots; src is nil for a clone job.
func held(src, dst *NodeState) slots {
	if src == nil {
		return slots{dst}
	}
	return slots{src, dst}
}

// acquire takes a slot on every node and maintains each gauge's
// high-water mark. The caller holds m.mu and has seen every node
// eligible.
func (s slots) acquire() {
	for _, n := range s {
		if r := n.running.Add(1); r > n.highWater.Load() {
			n.highWater.Store(r)
		}
	}
}

// release returns the slots and charges each node for the busy time.
func (s slots) release(busy time.Duration) {
	for _, n := range s {
		n.running.Add(-1)
		n.busyNs.Add(int64(busy))
	}
}

// program is a registered migratable program: a compiled DapC pair plus
// the per-arch reference runs the executor needs (total cycles to place
// the migration point, native output to verify identity).
type program struct {
	name     string
	source   string // inline DapC source, or "" when workload-backed
	workload string
	class    workloads.Class
	pair     *compiler.Pair

	mu        sync.Mutex
	refCycles map[isa.Arch]uint64
	refOut    string
}

// Manager is the fleet control plane.
type Manager struct {
	cfg     Config
	reg     *obs.Registry
	journal *journal
	policy  Placement

	mu        sync.Mutex
	nodes     map[string]*NodeState
	nodeOrder []string
	programs  map[string]*program
	jobs      map[int]*Job
	jobOrder  []int
	nextID    int
	started   bool
	stopped   bool

	// Slot accounting happens under mu alone: schedule takes an
	// attempt's node slots and its place in inflight, settle gives both
	// back. So the free slot pickPlacement saw is still free when
	// schedule takes it, and inflight never passes maxJobs.
	inflight, maxJobs int
	start             time.Time

	stop chan struct{}
	wake chan struct{}
	wg   sync.WaitGroup
}

// NewManager builds a manager, replaying the configured journal: journaled
// programs are re-registered (recompiled) and unfinished jobs requeued.
func NewManager(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	policy, err := NewPlacement(cfg.Policy)
	if err != nil {
		return nil, err
	}
	j, history, err := openJournal(cfg.Journal)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:      cfg,
		reg:      obs.New(),
		journal:  j,
		policy:   policy,
		nodes:    map[string]*NodeState{},
		programs: map[string]*program{},
		jobs:     map[int]*Job{},
		nextID:   1,
		stop:     make(chan struct{}),
		wake:     make(chan struct{}, 1),
	}
	st := digestEvents(history)
	for _, ev := range st.programs {
		p := &program{name: ev.Name, source: ev.Source, workload: ev.Workload, class: ev.Class}
		if err := m.register(p, false); err != nil {
			return nil, err
		}
	}
	if st.nextID > m.nextID {
		m.nextID = st.nextID
	}
	for _, job := range st.jobs {
		if job.State == Pending && job.Spec.Manifest != "" {
			if err := m.checkManifest(job.Spec.Manifest); err != nil {
				_ = j.Close() // surfacing the replay refusal; close is cleanup
				return nil, fmt.Errorf("fleet: journaled clone job %d: %w", job.ID, err)
			}
		}
		m.jobs[job.ID] = job
		m.jobOrder = append(m.jobOrder, job.ID)
		if job.State == Pending {
			m.reg.Counter("fleet.jobs_resumed").Inc()
		}
	}
	return m, nil
}

// AddNode boots a node from spec under the given name with capacity
// concurrent migration slots. Nodes must be added before Start; every
// registered program is installed on the new node.
func (m *Manager) AddNode(name string, spec cluster.NodeSpec, capacity int) error {
	if capacity <= 0 {
		capacity = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return fmt.Errorf("fleet: AddNode(%q) after Start", name)
	}
	if _, dup := m.nodes[name]; dup {
		return fmt.Errorf("fleet: duplicate node %q", name)
	}
	spec.Name = name
	n := &NodeState{
		Name:     name,
		Node:     cluster.NewNode(spec),
		Capacity: capacity,
	}
	for _, p := range m.programs {
		n.Node.Install(p.name, p.pair)
	}
	m.nodes[name] = n
	m.nodeOrder = append(m.nodeOrder, name)
	sort.Strings(m.nodeOrder)
	return nil
}

func (m *Manager) nodeList() []*NodeState {
	out := make([]*NodeState, 0, len(m.nodeOrder))
	for _, name := range m.nodeOrder {
		out = append(out, m.nodes[name])
	}
	return out
}

// NodeByName looks a node up.
func (m *Manager) NodeByName(name string) (*NodeState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n, ok := m.nodes[name]
	return n, ok
}

// RegisterProgram registers an inline-DapC program under name, compiles
// it for both ISAs, installs it on every node, and journals the source so
// a restarted daemon can re-register it.
func (m *Manager) RegisterProgram(name, source string) error {
	return m.register(&program{name: name, source: source}, true)
}

// RegisterWorkload registers a workloads-registry program (cg, mg,
// rediska, ...) at a class.
func (m *Manager) RegisterWorkload(name string, class workloads.Class) error {
	return m.register(&program{name: name, workload: name, class: class}, true)
}

// register compiles, verifies and installs p on every node, journaling
// the registration unless it is a replay of one.
func (m *Manager) register(p *program, journal bool) error {
	var pair *compiler.Pair
	var err error
	if p.workload != "" {
		w, werr := workloads.Get(p.workload)
		if werr != nil {
			return werr
		}
		if p.class == "" {
			p.class = workloads.ClassS
		}
		pair, err = workloads.CompilePair(w, p.class)
	} else {
		pair, err = compiler.Compile(p.source)
	}
	if err != nil {
		return fmt.Errorf("fleet: compile program %q: %w", p.name, err)
	}
	// A program whose stack maps fail static soundness would poison every
	// migration that ever targets it; refuse registration up front, on
	// both architectures.
	for _, b := range []*compiler.Binary{pair.X86, pair.ARM} {
		if err := updatecheck.VerifyBinary(b); err != nil {
			return fmt.Errorf("fleet: program %q fails updatecheck on %v: %w", p.name, b.Arch, err)
		}
	}
	p.pair = pair
	p.refCycles = map[isa.Arch]uint64{}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.programs[p.name]; dup {
		return fmt.Errorf("fleet: duplicate program %q", p.name)
	}
	m.programs[p.name] = p
	for _, n := range m.nodes {
		n.Node.Install(p.name, p.pair)
	}
	if journal {
		return m.journal.Append(Event{Type: "program", Name: p.name, Source: p.source, Workload: p.workload, Class: p.class})
	}
	return nil
}

// reference returns (computing and caching on first use) the program's
// total cycle count on the given node spec and its native output. The
// reference run happens on a throwaway node with the same spec, so it
// never perturbs fleet state.
func (p *program) reference(spec cluster.NodeSpec) (uint64, string, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if cycles, ok := p.refCycles[spec.Arch]; ok {
		return cycles, p.refOut, nil
	}
	ref := cluster.NewNode(spec)
	ref.Install(p.name, p.pair)
	proc, err := ref.Start(p.name)
	if err != nil {
		return 0, "", fmt.Errorf("fleet: reference start %q: %w", p.name, err)
	}
	if err := ref.K.Run(proc); err != nil {
		return 0, "", fmt.Errorf("fleet: reference run %q: %w", p.name, err)
	}
	out := proc.ConsoleString()
	if p.refOut == "" {
		p.refOut = out
	} else if p.refOut != out {
		// Deterministic programs produce identical output on both ISAs;
		// anything else would make the identity check meaningless.
		return 0, "", fmt.Errorf("fleet: program %q output differs across ISAs", p.name)
	}
	p.refCycles[spec.Arch] = proc.VCycles
	return proc.VCycles, p.refOut, nil
}

// Submit validates, journals, and enqueues a job, returning its ID. The
// scheduler picks it up immediately if the manager is running.
func (m *Manager) Submit(spec JobSpec) (int, error) {
	if err := (&spec).normalize(); err != nil {
		return 0, err
	}
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return 0, fmt.Errorf("fleet: manager stopped")
	}
	if _, ok := m.programs[spec.Program]; !ok {
		m.mu.Unlock()
		return 0, fmt.Errorf("fleet: unknown program %q (register it first)", spec.Program)
	}
	if spec.SrcNode != "" {
		if _, ok := m.nodes[spec.SrcNode]; !ok {
			m.mu.Unlock()
			return 0, fmt.Errorf("fleet: unknown source node %q", spec.SrcNode)
		}
	}
	if spec.DstNode != "" {
		if _, ok := m.nodes[spec.DstNode]; !ok {
			m.mu.Unlock()
			return 0, fmt.Errorf("fleet: unknown destination node %q", spec.DstNode)
		}
	}
	if spec.Manifest != "" {
		if err := m.checkManifest(spec.Manifest); err != nil {
			m.mu.Unlock()
			return 0, fmt.Errorf("fleet: %w", err)
		}
	}
	id := m.nextID
	m.nextID++
	job := &Job{ID: id, Spec: spec, State: Pending}
	m.jobs[id] = job
	m.jobOrder = append(m.jobOrder, id)
	err := m.journal.Append(Event{Type: "submit", Job: id, Spec: &spec})
	m.mu.Unlock()
	if err != nil {
		return 0, err
	}
	m.reg.Counter("fleet.jobs_submitted").Inc()
	m.kick()
	return id, nil
}

// kick wakes the scheduler without blocking.
func (m *Manager) kick() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// Start launches the scheduler loop.
func (m *Manager) Start() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return fmt.Errorf("fleet: already started")
	}
	if len(m.nodes) == 0 {
		return fmt.Errorf("fleet: no nodes")
	}
	m.maxJobs = m.cfg.MaxJobs
	if m.maxJobs <= 0 {
		for _, n := range m.nodes {
			m.maxJobs += n.Capacity
		}
	}
	//lint:ignore wallclock daemon start stamp for the uptime figure, reported as host time by design
	m.start = time.Now()
	m.started = true
	m.wg.Add(1)
	go m.schedulerLoop()
	return nil
}

// Stop shuts the control plane down: the scheduler stops dispatching,
// in-flight attempts run to completion (their outcomes are journaled),
// and every control-plane goroutine is joined before Stop returns.
// Pending jobs stay journaled for the next lifetime.
func (m *Manager) Stop() error {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return nil
	}
	m.stopped = true
	started := m.started
	m.mu.Unlock()
	if started {
		close(m.stop)
		m.wg.Wait()
	}
	return m.journal.Close()
}

// WaitIdle blocks until every submitted job is terminal (Done or
// Failed) or the timeout elapses.
func (m *Manager) WaitIdle(timeout time.Duration) error {
	//lint:ignore wallclock WaitIdle is a host-side test/ops timeout, not a modeled duration
	deadline := time.Now().Add(timeout)
	for {
		m.mu.Lock()
		busy := 0
		for _, j := range m.jobs {
			if j.State == Pending || j.State == Running {
				busy++
			}
		}
		m.mu.Unlock()
		if busy == 0 {
			return nil
		}
		//lint:ignore wallclock WaitIdle is a host-side test/ops timeout, not a modeled duration
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet: %d jobs still active after %v", busy, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// Drain marks a node as draining (true) or schedulable again (false).
// Draining is immediate for new placements; migrations already holding a
// slot finish normally.
func (m *Manager) Drain(name string, drain bool) error {
	n, ok := m.NodeByName(name)
	if !ok {
		return fmt.Errorf("fleet: unknown node %q", name)
	}
	n.drained.Store(drain)
	if drain {
		m.reg.Counter("fleet.drains").Inc()
	}
	m.kick()
	return nil
}

// Jobs returns a copy of every job in submission order. A copy shares
// its Spec.Faults plan with the manager's record: read it, do not write
// it.
func (m *Manager) Jobs() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.jobOrder))
	for _, id := range m.jobOrder {
		out = append(out, *m.jobs[id])
	}
	return out
}

// Job returns a copy of one job.
func (m *Manager) Job(id int) (Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// schedulerLoop dispatches pending jobs whenever something changes: a
// submit, a finished attempt, a drain or undrain, or a
// retry's backoff deadline (settle arms a timer that kicks it).
func (m *Manager) schedulerLoop() {
	defer m.wg.Done()
	for {
		m.schedule()
		select {
		case <-m.stop:
			// Let in-flight executors finish; they are part of m.wg.
			return
		case <-m.wake:
		}
	}
}

// eligible reports whether a node can take a new placement.
func eligible(n *NodeState) bool {
	return !n.Drained() && n.Running() < n.Capacity
}

// schedule scans pending jobs in submission order and dispatches every
// one it can place right now, until the fleet-wide bound is reached. A
// placement names only nodes with a free slot, so taking them cannot
// fail.
func (m *Manager) schedule() {
	//lint:ignore wallclock scheduler scan compares host-side retry-backoff deadlines; modeled time is untouched
	now := time.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started || m.stopped {
		return
	}
	for _, id := range m.jobOrder {
		job := m.jobs[id]
		if job.State != Pending || now.Before(job.notBefore) {
			continue
		}
		// The bound comes first: a placement turns a round-robin cursor,
		// which must not move for a job that is not dispatched.
		if m.inflight >= m.maxJobs {
			return
		}
		src, dst := m.pickPlacement(job)
		if dst == nil {
			continue
		}
		m.inflight++
		nodes := held(src, dst)
		nodes.acquire()
		job.State = Running
		job.Attempts++
		job.Dst = dst.Name
		if src != nil {
			job.Src = src.Name
		}
		attempt := job.Attempts
		if err := m.journal.Append(Event{Type: "start", Job: job.ID, Attempt: attempt, Src: job.Src, Dst: job.Dst}); err != nil {
			// A journal that stops accepting writes is fatal for
			// durability; fail the job rather than run it unjournaled.
			job.State = Failed
			job.Err = err.Error()
			nodes.release(0)
			m.inflight--
			m.retire(job)
			continue
		}
		m.reg.Counter("fleet.dispatches").Inc()
		m.wg.Add(1)
		go m.runJob(job, src, dst, attempt)
	}
}

// pickPlacement chooses the job's nodes. A clone job restores a stored
// checkpoint, so it needs only a destination. A migration's source
// choice considers destination viability: a free node is no source at
// all if taking it leaves the job's TargetArch constraint unsatisfiable,
// so every viable source is tried in load order before giving up.
func (m *Manager) pickPlacement(job *Job) (src, dst *NodeState) {
	if job.Spec.Manifest != "" {
		return nil, m.pickDest(job, nil)
	}
	for _, src := range m.sourceCandidates(job) {
		if dst := m.pickDest(job, src); dst != nil {
			return src, dst
		}
	}
	return nil, nil
}

// sourceCandidates returns the nodes the job's process could run (or
// already runs) on, best first.
func (m *Manager) sourceCandidates(job *Job) []*NodeState {
	// Sticky after the first dispatch: the paused source process lives
	// there, so the job waits for a slot on it, drained or not.
	if job.proc != nil {
		n := m.nodes[job.Src]
		if n == nil || n.Running() >= n.Capacity {
			return nil
		}
		return []*NodeState{n}
	}
	if job.Spec.SrcNode != "" {
		n := m.nodes[job.Spec.SrcNode]
		if n == nil || !eligible(n) {
			return nil
		}
		return []*NodeState{n}
	}
	var candidates []*NodeState
	for _, name := range m.nodeOrder {
		if n := m.nodes[name]; eligible(n) {
			candidates = append(candidates, n)
		}
	}
	sort.SliceStable(candidates, func(i, k int) bool {
		return float64(candidates[i].Running())/float64(candidates[i].Capacity) <
			float64(candidates[k].Running())/float64(candidates[k].Capacity)
	})
	return candidates
}

// pickDest runs the placement policy over the eligible destinations.
func (m *Manager) pickDest(job *Job, src *NodeState) *NodeState {
	if job.Spec.DstNode != "" {
		n := m.nodes[job.Spec.DstNode]
		if n == nil || n == src || !eligible(n) {
			return nil
		}
		return n
	}
	wantArch, constrained := archOf(job.Spec.TargetArch)
	var candidates []*NodeState
	for _, name := range m.nodeOrder {
		n := m.nodes[name]
		if n == src || !eligible(n) || (constrained && n.Arch() != wantArch) {
			continue
		}
		candidates = append(candidates, n)
	}
	return m.policy(job, src, candidates)
}

// backoffFor computes the exponential retry backoff for a (1-based)
// completed attempt count.
func (m *Manager) backoffFor(attempts int) time.Duration {
	d := m.cfg.RetryBase
	for i := 1; i < attempts; i++ {
		d *= 2
		if d >= m.cfg.RetryMax {
			return m.cfg.RetryMax
		}
	}
	if d > m.cfg.RetryMax {
		d = m.cfg.RetryMax
	}
	return d
}
