// Package cluster is DStress's driver: it runs a full execution —
// trusted-party setup, block GMW sessions, ElGamal transfers, in-MPC
// noising, flat or tree aggregation — over a fleet of nodes, each of which
// wraps exactly one protocol engine (vertex.Engine).
//
// A Coordinator (the experiment driver, which also plays the trusted party
// of §3.4) speaks a gob control plane to every node — registration, job
// dispatch, heartbeats, checkpoint shipping, recovery announcements — and
// folds what they report. The nodes start one of two ways: as daemons on
// separate processes or machines connected by internal/tcpnet (RunNode;
// the paper's evaluation, §5, runs one per EC2 machine), checking every
// byte that arrives over the wire; or as goroutines of this process on the
// in-memory hub (OpenHub, the simulation). Because it is one driver around
// one engine, a cluster run and a simulated run of the same scenario are
// byte-compatible on the wire and report the same phase table by
// construction.
package cluster

import (
	"fmt"
	"sort"
	"sync"

	"dstress/internal/risk"
	"dstress/internal/vertex"
)

// ProgramSpec names a vertex program plus its compile-time parameters.
// Vertex programs contain circuit-builder closures and cannot travel over
// the control plane; instead the coordinator ships a spec and every node
// compiles the identical circuits locally (circuit compilation is
// deterministic).
type ProgramSpec struct {
	// Kind selects a registered program family: "en" (Eisenberg–Noe),
	// "egj" (Elliott–Golub–Jackson), or a custom-registered kind.
	Kind string
	// Width and Unit fix the fixed-point encoding (risk.CircuitConfig).
	Width int
	Unit  float64
	// GranularityDollars is the dollar-DP granularity T of §4.4.
	GranularityDollars float64
	// Leverage is the leverage bound r that determines sensitivity.
	Leverage float64
}

// Builder compiles a ProgramSpec into a vertex program.
type Builder func(ProgramSpec) (*vertex.Program, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Builder{
		"en": func(s ProgramSpec) (*vertex.Program, error) {
			return risk.ENProgram(risk.CircuitConfig{Width: s.Width, Unit: s.Unit}, s.GranularityDollars, s.Leverage), nil
		},
		"egj": func(s ProgramSpec) (*vertex.Program, error) {
			return risk.EGJProgram(risk.CircuitConfig{Width: s.Width, Unit: s.Unit}, s.GranularityDollars, s.Leverage), nil
		},
	}
)

// RegisterProgram adds (or replaces) a program family so custom vertex
// programs can run on a cluster. Every node binary must register the same
// kinds before starting.
func RegisterProgram(kind string, b Builder) {
	registryMu.Lock()
	defer registryMu.Unlock()
	registry[kind] = b
}

// Kinds returns the registered program kinds, sorted.
func Kinds() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for k := range registry {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Build compiles the spec through the registry.
func (s ProgramSpec) Build() (*vertex.Program, error) {
	registryMu.RLock()
	b, ok := registry[s.Kind]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cluster: unknown program kind %q (registered: %v)", s.Kind, Kinds())
	}
	return b(s)
}
