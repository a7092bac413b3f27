package agent

import (
	"fmt"
	"testing"

	"diverseav/internal/geom"
	"diverseav/internal/vm"
)

// laneHook is a transient-injector stand-in: flip mask into the single
// writeback at dynIndex on device d.
func laneHook(d vm.Device, fireAt, mask uint64) vm.FaultHook {
	return func(ev vm.WriteEvent) uint64 {
		if ev.Device == d && ev.DynIndex == fireAt {
			return mask
		}
		return 0
	}
}

// TestStepLanesMatchesSolo drives the production three-program pipeline
// through StepLanes for several frames — hook-free lanes next to lanes
// with firing transient hooks on both devices — and requires every lane
// to stay bit-identical (outputs, errors, full machine state digest) to
// its solo Step twin.
func TestStepLanesMatchesSolo(t *testing.T) {
	const width = 4
	const fnvOffset = 14695981039346656037
	lanes := make([]*Agent, width)
	solos := make([]*Agent, width)
	ins := make([]*Input, width)
	for k := range lanes {
		lanes[k] = New(fmt.Sprintf("lane%d", k))
		solos[k] = New(fmt.Sprintf("lane%d", k))
	}
	// Lane 1 takes a GPU-stage fault, lane 3 a CPU-stage fault; lanes 0
	// and 2 run hook-free (those two share identical inputs, so the
	// pack carries duplicate data lanes too).
	arm := func(ags []*Agent) {
		ags[1].Machine().SetFaultHook(laneHook(vm.GPU, 50_000, 1<<52))
		ags[3].Machine().SetFaultHook(laneHook(vm.CPU, 20_000, 1<<40))
	}
	arm(lanes)
	arm(solos)
	for step := 0; step < 3; step++ {
		c, l, r := renderScene(t, geom.Pose{}, nil, nil)
		in := &Input{
			Center: c, Left: l, Right: r,
			Speed: 2 + 0.1*float64(step), Dt: 0.05, SpeedLimit: 12, FrameIndex: step,
		}
		for k := range ins {
			ins[k] = in
		}
		outs, errs := StepLanes(lanes, ins)
		for k := range solos {
			sOut, sErr := solos[k].Step(in)
			if (errs[k] == nil) != (sErr == nil) {
				t.Fatalf("step %d lane %d: error mismatch: %v vs solo %v", step, k, errs[k], sErr)
			}
			if sErr != nil && errs[k].Error() != sErr.Error() {
				t.Fatalf("step %d lane %d: error text %q vs solo %q", step, k, errs[k], sErr)
			}
			if sErr == nil && outs[k] != sOut {
				t.Fatalf("step %d lane %d: output %+v vs solo %+v", step, k, outs[k], sOut)
			}
			if lanes[k].DigestFNV(fnvOffset) != solos[k].DigestFNV(fnvOffset) {
				t.Fatalf("step %d lane %d: machine state digest diverged from solo", step, k)
			}
		}
	}
	// The pack must actually have executed in lockstep, not fallen back
	// to per-lane solo runs.
	for k, a := range lanes {
		if _, _, _, batched := a.Machine().TierCounts(vm.GPU); batched == 0 {
			t.Fatalf("lane %d executed no batched instructions", k)
		}
	}
}
