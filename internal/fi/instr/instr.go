// Package instr is the instruction-level fault surface: the paper's
// NVBitFI-style transient/permanent XOR injector (internal/fi's Plan +
// Injector), repackaged as the first fi.Surface implementation. This
// package only adapts the injector's VM arming (Injector.Arm: the write
// hook for a transient plan, the machine's masked-direct mode for a
// permanent one), quiescence probe, and activation counters to the
// pluggable-surface interface, so the sim runner no longer needs to
// know about *fi.Injector at all.
package instr

import (
	"diverseav/internal/fi"
	"diverseav/internal/vm"
)

// Plan wraps one fi.Plan as a fi.SurfacePlan. Agent is the index of the
// process a transient fault strikes (fi.Plan carries no agent; the sim
// Config carried it as FaultAgent).
type Plan struct {
	P     fi.Plan
	Agent int
}

// FromFault adapts a legacy (fi.Plan, FaultAgent) pair to a surface
// plan. This is the compatibility shim the runner uses for
// Config.Fault, which keeps the pre-refactor API — and every trace and
// campaign artifact it produced — byte-identical.
func FromFault(p fi.Plan, agent int) Plan { return Plan{P: p, Agent: agent} }

func (p Plan) Surface() string { return fi.SurfaceInstr }

// String is exactly fi.Plan.String: trace.Fault bytes must not change
// across the surface refactor.
func (p Plan) String() string { return p.P.String() }

// Start is -1: a dynamic-instruction-index activation instant is not
// step-decidable without a profile, so fork points keep coming from
// fi.Profile.ActivationStep at the campaign layer.
func (p Plan) Start() int { return -1 }

func (p Plan) New() fi.Surface { return &surface{plan: p} }

// surface is one armed instruction-surface instance: the per-agent
// injectors plus the machines their quiescence probes read.
type surface struct {
	plan      Plan
	injectors []*fi.Injector
	machines  []*vm.Machine
}

func (s *surface) Name() string { return fi.SurfaceInstr }

// Arm arms one injector per struck agent with the paper's reach
// semantics: a transient fault strikes one process; a permanent fault
// strikes the shared processor, so it reaches every agent except in the
// FD baseline's dedicated-replica mode, where it strikes one replica
// (§VI-B).
func (s *surface) Arm(h fi.Harness) {
	n := h.Agents()
	shared := s.plan.P.Model == fi.Permanent && h.SharedProcessor()
	for i := 0; i < n; i++ {
		if !shared && i != s.plan.Agent%n {
			continue
		}
		inj := fi.NewInjector(s.plan.P)
		inj.Arm(h.Machine(i))
		s.injectors = append(s.injectors, inj)
		s.machines = append(s.machines, h.Machine(i))
	}
}

// Quiescent ignores the step: instruction-surface quiescence is decided
// against each armed machine's cumulative dynamic instruction count,
// exactly the probe the splice gate ran before the refactor.
func (s *surface) Quiescent(int) bool {
	for k, inj := range s.injectors {
		if !inj.Quiescent(s.machines[k].InstrCount(inj.Plan().Target)) {
			return false
		}
	}
	return true
}

func (s *surface) Activations() uint64 {
	var total uint64
	for _, inj := range s.injectors {
		total += inj.Activations()
	}
	return total
}

// Snapshot/Restore are positional over the armed injectors, preserving
// the checkpoint Activations layout of the pre-refactor runner.
func (s *surface) Snapshot() []uint64 {
	out := make([]uint64, len(s.injectors))
	for k, inj := range s.injectors {
		out[k] = inj.Snapshot()
	}
	return out
}

func (s *surface) Restore(counters []uint64) {
	for k, inj := range s.injectors {
		if k < len(counters) {
			inj.Restore(counters[k])
		}
	}
}

// Release uninstalls the write hooks and disarms any permanent fault —
// the batched-lane fast path once every injector is quiescent. The
// activation counts survive it.
func (s *surface) Release() {
	for _, m := range s.machines {
		m.SetFaultHook(nil)
		m.Disarm()
	}
}
