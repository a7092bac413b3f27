package sim

import (
	"fmt"
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/fi/sensorfault"
	"diverseav/internal/scenario"
	"diverseav/internal/sensor"
	"diverseav/internal/vm"
)

// TestLatticeRenderMatchesFullFrames pins lattice rendering end to end:
// a run with a no-op StepHook renders whole frames, one without renders
// only the agent's lattices, and for every mode, fault-free and under
// every sensor-fault kind on every camera and a permanent instruction
// fault, the two traces must be byte-identical. The sensor faults write
// off-lattice bytes too, so this also pins that they stay pixel-local.
func TestLatticeRenderMatchesFullFrames(t *testing.T) {
	sc := shortScenario()
	const seed = 2718
	type variant struct {
		name string
		set  func(*Config)
	}
	variants := []variant{{"fault-free", func(*Config) {}}}
	for cam := 0; cam < 3; cam++ {
		for _, p := range []sensorfault.Plan{
			{Kind: sensorfault.BitFlip, Camera: cam, Step: 20, Duration: 60, Pixels: 240, Bit: 6, Seed: 7},
			{Kind: sensorfault.ChannelDrop, Camera: cam, Step: 15, Duration: 50, Channel: 1},
			{Kind: sensorfault.Freeze, Camera: cam, Step: 25, Duration: 70},
		} {
			p := p
			variants = append(variants, variant{p.String(), func(c *Config) { c.Surface = p }})
		}
	}
	perm := fi.Plan{Target: vm.GPU, Model: fi.Permanent, Opcode: vm.FMA, Bit: 45}
	variants = append(variants, variant{perm.String(), func(c *Config) { c.Fault = &perm }})

	hook := func(int, *scenario.Env, *[3]sensor.Frame) {}
	for _, mode := range []Mode{Single, RoundRobin, Duplicate} {
		for _, v := range variants {
			t.Run(fmt.Sprintf("%s/%s", mode, v.name), func(t *testing.T) {
				cfg := Config{Scenario: sc, Mode: mode, Seed: seed, DisableSplice: true}
				v.set(&cfg)
				lattice := Run(cfg)
				cfg.StepHook = hook
				full := Run(cfg)
				if hashTrace(t, lattice.Trace) != hashTrace(t, full.Trace) {
					t.Errorf("lattice-rendered trace differs from the full-frame one")
				}
				if lattice.Activations != full.Activations {
					t.Errorf("activations: lattice %d, full %d", lattice.Activations, full.Activations)
				}
				if v.name != "fault-free" && lattice.Activations == 0 {
					t.Errorf("fault never activated; the row is vacuous")
				}
			})
		}
	}
}
