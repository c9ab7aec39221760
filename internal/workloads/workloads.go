// Package workloads contains the paper's evaluation programs rewritten in
// DapC and compiled by the DAPPER toolchain: the NPB kernels (CG, MG, EP,
// FT, IS), Linpack, Dhrystone, K-means, PARSEC-style multithreaded
// applications (blackscholes, swaptions, streamcluster), and the two
// servers (rediska, a Redis-like key/value store; nginz, an Nginx-like
// request router). These are the processes the checkpoints, rewrites, and
// migrations operate on in the figure reproductions.
//
// Every program is deterministic (no wall clock, LCG randomness with fixed
// seeds) so the migration invariant — identical output with and without a
// mid-run cross-ISA migration — is exact. Hot loops call helper functions,
// giving the monitor equivalence points inside them (the same property the
// paper's C workloads have naturally).
package workloads

import (
	"fmt"
	"sync"

	"github.com/dapper-sim/dapper/internal/compiler"
)

// Class scales a workload, mirroring NPB's class system: S for unit tests,
// A and B for benchmarks.
type Class string

// Problem classes.
const (
	ClassS Class = "S"
	ClassA Class = "A"
	ClassB Class = "B"
)

// Kind distinguishes run-to-completion jobs from request servers.
type Kind uint8

// Workload kinds.
const (
	Batch Kind = iota + 1
	Server
)

// Workload is one evaluation program.
type Workload struct {
	Name string
	Kind Kind
	// Threads > 1 marks multithreaded (PARSEC-style) programs.
	Threads int
	// source builds the DapC text for a class.
	source func(Class) string
}

// Source returns the program text for a class.
func (w Workload) Source(c Class) string { return w.source(c) }

// registry lists all workloads in a stable order.
var registry = []Workload{
	{Name: "cg", Kind: Batch, Threads: 1, source: cgSource},
	{Name: "mg", Kind: Batch, Threads: 1, source: mgSource},
	{Name: "ep", Kind: Batch, Threads: 1, source: epSource},
	{Name: "ft", Kind: Batch, Threads: 1, source: ftSource},
	{Name: "is", Kind: Batch, Threads: 1, source: isSource},
	{Name: "linpack", Kind: Batch, Threads: 1, source: linpackSource},
	{Name: "dhrystone", Kind: Batch, Threads: 1, source: dhrystoneSource},
	{Name: "kmeans", Kind: Batch, Threads: 1, source: kmeansSource},
	{Name: "blackscholes", Kind: Batch, Threads: 4, source: blackscholesSource},
	{Name: "swaptions", Kind: Batch, Threads: 4, source: swaptionsSource},
	{Name: "streamcluster", Kind: Batch, Threads: 4, source: streamclusterSource},
	{Name: "rediska", Kind: Server, Threads: 1, source: rediskaSource},
	{Name: "nginz", Kind: Server, Threads: 1, source: nginzSource},
}

// All returns every workload.
func All() []Workload {
	out := make([]Workload, len(registry))
	copy(out, registry)
	return out
}

// Get finds a workload by name.
func Get(name string) (Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("workloads: unknown workload %q", name)
}

var (
	cacheMu sync.Mutex
	cache   = map[string]*compiler.Pair{}
)

// CompilePair compiles (with caching) a workload at a class.
func CompilePair(w Workload, c Class) (*compiler.Pair, error) {
	key := w.Name + "/" + string(c)
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if p, ok := cache[key]; ok {
		return p, nil
	}
	p, err := compiler.Compile(w.Source(c))
	if err != nil {
		return nil, fmt.Errorf("workloads: compile %s class %s: %w", w.Name, c, err)
	}
	cache[key] = p
	return p, nil
}

// pick returns the class-dependent parameter.
func pick(c Class, s, a, b int) int {
	switch c {
	case ClassA:
		return a
	case ClassB:
		return b
	default:
		return s
	}
}
