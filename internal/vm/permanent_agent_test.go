package vm_test

import (
	"fmt"
	"math/rand"
	"testing"

	"diverseav/internal/agent"
	"diverseav/internal/sensor"
	"diverseav/internal/vm"
)

// TestAgentProgramsPermanentDirectVsHooked runs every opcode of the ISA
// as a permanent fault (random bit) through each stage of the
// production agent pipeline, masked-direct at tier 1 against the hooked
// reference, at the production budget and at a truncated one that
// lands in a step-budget trap. The agent's programs are where kernel
// skipping matters: a fault on an opcode some kernels hold must leave
// every other kernel fused and still match the hooked loop bit for bit.
func TestAgentProgramsPermanentDirectVsHooked(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := agent.New("perm")
	frame := func() sensor.Frame {
		f := sensor.NewFrame()
		for i := range f {
			f[i] = byte(rng.Intn(256))
		}
		return f
	}
	in := &agent.Input{Center: frame(), Left: frame(), Right: frame(), Speed: 9, Dt: 0.1, SpeedLimit: 20}
	if _, err := a.Step(in); err != nil {
		t.Fatal(err)
	}
	progs, devs, budgets := a.Programs()
	run := func(st *vm.MachineState, s int, budget uint64, arm func(*vm.Machine)) (*vm.Machine, error) {
		m := vm.NewMachine(agent.MemWords)
		m.Restore(st)
		arm(m)
		return m, m.Run(devs[s], progs[s], budget)
	}

	partialSkips := 0
	for s := range progs {
		st := a.Snapshot()
		golden, err := run(st, s, budgets[s], func(*vm.Machine) {})
		if err != nil {
			t.Fatalf("stage %d: golden trap: %v", s, err)
		}
		goldenFused, _, _, _ := golden.TierCounts(devs[s])
		for op := vm.Opcode(0); int(op) < vm.NumOpcodes; op++ {
			mask := uint64(1) << uint(rng.Intn(64))
			for _, budget := range []uint64{budgets[s], 38_461} {
				ctx := fmt.Sprintf("stage %d (%s) %s mask %#x budget %d", s, progs[s].Name, op, mask, budget)
				md, errD := run(st, s, budget, func(m *vm.Machine) { m.ArmPermanent(devs[s], op, mask) })
				var hits uint64
				mh, errH := run(st, s, budget, func(m *vm.Machine) {
					m.SetFaultHook(func(ev vm.WriteEvent) uint64 {
						if ev.Device != devs[s] || ev.Op != op {
							return 0
						}
						hits++
						return mask
					})
				})
				if fmt.Sprint(errD) != fmt.Sprint(errH) {
					t.Fatalf("%s: trap %v vs hooked %v", ctx, errD, errH)
				}
				if !md.StateEquals(mh.Snapshot()) {
					t.Fatalf("%s: machine state differs from the hooked reference", ctx)
				}
				if md.Activations() != hits {
					t.Fatalf("%s: activations %d vs hooked %d", ctx, md.Activations(), hits)
				}
				fused, _, hooked, _ := md.TierCounts(devs[s])
				if hooked != 0 {
					t.Fatalf("%s: %d hooked instructions on the masked-direct path", ctx, hooked)
				}
				if budget == budgets[s] && hits > 0 && fused > 0 && fused < goldenFused {
					partialSkips++
				}
			}
		}
		a.Restore(golden.Snapshot()) // the next stage starts where this one ended
	}
	if partialSkips == 0 {
		t.Error("no fault skipped some kernels while keeping others fused")
	}
}
