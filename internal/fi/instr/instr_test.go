package instr

import (
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/vm"
)

// harness is a minimal fi.Harness: n agent machines, shared or
// dedicated processor.
type harness struct {
	machines []*vm.Machine
	shared   bool
}

func newHarness(n int, shared bool) *harness {
	h := &harness{shared: shared}
	for i := 0; i < n; i++ {
		h.machines = append(h.machines, vm.NewMachine(64))
	}
	return h
}

func (h *harness) Agents() int               { return len(h.machines) }
func (h *harness) SharedProcessor() bool     { return h.shared }
func (h *harness) Machine(i int) *vm.Machine { return h.machines[i] }
func (h *harness) OnFrames(fi.FrameHook)     {}
func (h *harness) OnOutput(fi.OutputHook)    {}
func (h *harness) run(i int) error {
	return h.machines[i].Run(vm.GPU, workload, 1<<20)
}

// workload is a loop of float, int and memory writebacks on the GPU.
var workload = func() *vm.Program {
	b := vm.NewBuilder("workload")
	b.FMovI(0, 0)
	b.FMovI(1, 1.5)
	b.IMovI(0, 0)
	b.IMovI(1, 20)
	top, done := b.NewLabel(), b.NewLabel()
	b.Bind(top)
	b.ICmpLt(2, 0, 1)
	b.Beqz(2, done)
	b.FMA(0, 1, 1, 0)
	b.St(0, 0, 0)
	b.Ld(2, 0, 0)
	b.IAddI(0, 0, 1)
	b.Jmp(top)
	b.Bind(done)
	b.Halt()
	return b.MustBuild()
}()

// golden runs the workload fault-free on a fresh machine.
func golden(t *testing.T) *vm.Machine {
	t.Helper()
	h := newHarness(1, true)
	if err := h.run(0); err != nil {
		t.Fatal(err)
	}
	return h.Machine(0)
}

// reference runs the workload on a fresh machine with plan p applied by
// a per-writeback hook (the hooked reference of both fault models) and
// returns the machine and its activation count.
func reference(t *testing.T, p fi.Plan) (*vm.Machine, uint64) {
	t.Helper()
	m := vm.NewMachine(64)
	var hits uint64
	m.SetFaultHook(func(ev vm.WriteEvent) uint64 {
		hit := ev.Device == p.Target && ev.Op == p.Opcode
		if p.Model == fi.Transient {
			hit = ev.Device == p.Target && ev.DynIndex == p.DynIndex
		}
		if !hit {
			return 0
		}
		hits++
		return p.Mask()
	})
	if err := m.Run(vm.GPU, workload, 1<<20); err != nil {
		t.Fatal(err)
	}
	return m, hits
}

var (
	permanent = fi.Plan{Target: vm.GPU, Model: fi.Permanent, Opcode: vm.FMA, Bit: 7}
	transient = fi.Plan{Target: vm.GPU, Model: fi.Transient, DynIndex: 40, Bit: 7}
)

// TestArmReach pins the paper's reach semantics (§VI-B): a permanent
// fault arms every agent on a shared processor and only the plan's
// replica on dedicated ones; a transient fault always strikes one
// agent. Armed agents must match the hooked reference exactly, in state
// and activation count; unarmed agents must match a fault-free run.
func TestArmReach(t *testing.T) {
	clean := golden(t)
	for _, c := range []struct {
		name   string
		plan   fi.Plan
		shared bool
		armed  []bool
	}{
		{"permanent-shared", permanent, true, []bool{true, true}},
		{"permanent-dedicated", permanent, false, []bool{false, true}},
		{"transient-shared", transient, true, []bool{false, true}},
		{"transient-dedicated", transient, false, []bool{false, true}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ref, refHits := reference(t, c.plan)
			if refHits == 0 {
				t.Fatal("reference fault never activated")
			}
			h := newHarness(2, c.shared)
			s := FromFault(c.plan, 1).New()
			s.Arm(h)
			var want uint64
			for i, armed := range c.armed {
				if err := h.run(i); err != nil {
					t.Fatal(err)
				}
				exp := clean
				if armed {
					exp, want = ref, want+refHits
				}
				if !h.Machine(i).StateEquals(exp.Snapshot()) {
					t.Errorf("agent %d (armed %v): state differs from its reference", i, armed)
				}
				if _, _, hooked, _ := h.Machine(i).TierCounts(vm.GPU); c.plan.Model == fi.Permanent && hooked != 0 {
					t.Errorf("agent %d: permanent fault ran %d instructions on the hooked loop", i, hooked)
				}
			}
			if got := s.Activations(); got != want {
				t.Errorf("activations = %d, want %d", got, want)
			}
		})
	}
}

// TestSnapshotRestoreRelease: the activation counters round-trip through
// Snapshot/Restore into a freshly armed instance and keep counting from
// there, and Release disarms every machine while keeping the count.
func TestSnapshotRestoreRelease(t *testing.T) {
	_, perRun := reference(t, permanent)

	h := newHarness(2, true)
	s := FromFault(permanent, 0).New()
	s.Arm(h)
	for i := 0; i < 2; i++ {
		if err := h.run(i); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	if len(snap) != 2 || snap[0] != perRun || snap[1] != perRun {
		t.Fatalf("snapshot = %v, want [%d %d]", snap, perRun, perRun)
	}

	fh := newHarness(2, true)
	fork := FromFault(permanent, 0).New()
	fork.Arm(fh)
	fork.Restore(snap)
	if fork.Activations() != 2*perRun {
		t.Fatalf("restored activations = %d, want %d", fork.Activations(), 2*perRun)
	}
	if err := fh.run(0); err != nil {
		t.Fatal(err)
	}
	if fork.Activations() != 3*perRun {
		t.Errorf("activations after a forked run = %d, want %d", fork.Activations(), 3*perRun)
	}
	if fork.Quiescent(0) {
		t.Error("a permanent fault reported quiescent")
	}

	s.Release()
	h.machines[0].Restore(vm.NewMachine(64).Snapshot())
	if err := h.run(0); err != nil {
		t.Fatal(err)
	}
	if !h.Machine(0).StateEquals(golden(t).Snapshot()) {
		t.Error("released machine still corrupts its writebacks")
	}
	if s.Activations() != 2*perRun {
		t.Errorf("activations after Release = %d, want %d", s.Activations(), 2*perRun)
	}
}
