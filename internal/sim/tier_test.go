package sim

import (
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/vm"
)

// TestRunTierEquivalence is the end-to-end form of the tiered-VM
// invariant: a full closed-loop run on the tier-1 fused kernels must
// produce a byte-identical trace to the same run pinned to the tier-0
// scalar interpreter, for every agent mode. The instruction counts
// serialized in the trace make this sensitive to even a one-instruction
// accounting drift.
func TestRunTierEquivalence(t *testing.T) {
	sc := shortScenario()
	for _, mode := range []Mode{Single, RoundRobin, Duplicate} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			base := Config{Scenario: sc, Mode: mode, Seed: 99}
			tier0 := base
			tier0.ForceVMTier0 = true
			h1, h0 := traceHash(t, base), traceHash(t, tier0)
			if h1 != h0 {
				t.Fatalf("tier-1 trace diverged from tier-0: %s vs %s", h1, h0)
			}
		})
	}
}

// TestRunTierEquivalenceUnderFault covers the mixed configurations: a
// transient fault installs a hook on one agent (forcing it onto the
// hooked tier-0 loop) while the other agent keeps running tier-1
// kernels, and a permanent fault runs both agents masked-direct with
// kernels holding the faulted opcode skipped. The whole run must still
// match the fully tier-0 execution.
func TestRunTierEquivalenceUnderFault(t *testing.T) {
	sc := shortScenario()
	for _, plan := range []fi.Plan{
		{Target: vm.GPU, Model: fi.Transient, DynIndex: 500_000, Bit: 40},
		{Target: vm.GPU, Model: fi.Permanent, Opcode: vm.FMA, Bit: 45},
	} {
		plan := plan
		base := Config{Scenario: sc, Mode: RoundRobin, Seed: 3, Fault: &plan, FaultAgent: 1}
		tier0 := base
		tier0.ForceVMTier0 = true
		h1, h0 := traceHash(t, base), traceHash(t, tier0)
		if h1 != h0 {
			t.Fatalf("%s: faulted tier-1 trace diverged from tier-0: %s vs %s", plan, h1, h0)
		}
	}
}

// TestPermanentFaultTierCounts is the machine-independent gate against
// a silent fallback of permanent faults to a slow path, in exact
// instruction counts rather than timings: a permanent GPU run and a
// permanent CPU run must execute nothing on the hooked loop, keep the
// faulted device's kernels that lack the faulted opcode fused, and run
// the other device exactly as fused as the same seed's golden run.
func TestPermanentFaultTierCounts(t *testing.T) {
	sc := shortScenario()
	base := Config{Scenario: sc, Mode: RoundRobin, Seed: 3}
	golden := newRunner(base)
	golden.run(0)
	for _, plan := range []fi.Plan{
		{Target: vm.GPU, Model: fi.Permanent, Opcode: vm.FMA, Bit: 45},
		{Target: vm.CPU, Model: fi.Permanent, Opcode: vm.ST, Bit: 2},
	} {
		plan := plan
		t.Run(plan.String(), func(t *testing.T) {
			cfg := base
			cfg.Fault = &plan
			r := newRunner(cfg)
			res := r.run(0)
			if res.Activations == 0 || res.Trace.Outcome != golden.tr.Outcome {
				t.Fatalf("activations %d, outcome %s (golden %s): want an activated run that completes",
					res.Activations, res.Trace.Outcome, golden.tr.Outcome)
			}
			other := vm.GPU
			if plan.Target == vm.GPU {
				other = vm.CPU
			}
			for i, ag := range r.agents {
				m, g := ag.Machine(), golden.agents[i].Machine()
				for _, d := range []vm.Device{vm.CPU, vm.GPU} {
					if _, _, hooked, _ := m.TierCounts(d); hooked != 0 {
						t.Errorf("agent %d %s: %d hooked instructions", i, d, hooked)
					}
				}
				if fused, _, _, _ := m.TierCounts(plan.Target); fused == 0 {
					t.Errorf("agent %d: faulted device %s ran no fused kernels", i, plan.Target)
				}
				fused, _, _, _ := m.TierCounts(other)
				want, _, _, _ := g.TierCounts(other)
				if fused != want {
					t.Errorf("agent %d: unfaulted device %s fused %d instructions, golden %d", i, other, fused, want)
				}
			}
		})
	}
}

// BenchmarkSimRun is the closed-loop throughput benchmark CI's smoke
// step runs (one iteration) to catch gross sim-path breakage; locally
// it measures steps/s on the duplicate mode, the configuration the
// tier-1 kernels speed up most.
func BenchmarkSimRun(b *testing.B) {
	sc := shortScenario()
	cfg := Config{Scenario: sc, Mode: Duplicate, Seed: 5}
	Run(cfg) // warm shared state (compiled programs, worker pool)
	steps := int(sc.Duration * Hz)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Run(cfg)
	}
	b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
}
