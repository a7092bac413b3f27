package vm

import (
	"math/rand"
	"testing"
)

// Masked-direct permanent faults (ArmPermanent) against their hooked
// reference: the per-writeback callback that XOR-masks every instance
// of one opcode on one device. For every (device, opcode, bit) triple
// the tier-1 masked-direct run and the hooked run must agree on
// registers, memory, instruction counts, trap kind and pc, and
// activation count.

// permHook is the hooked reference of a permanent fault; it counts the
// writebacks it corrupts into *hits.
func permHook(fd Device, op Opcode, mask uint64, hits *uint64) FaultHook {
	return func(ev WriteEvent) uint64 {
		if ev.Device != fd || ev.Op != op {
			return 0
		}
		*hits++
		return mask
	}
}

// permDiff runs p on device d from proto's state twice — masked-direct
// at tier 1 with the fault (fd, op, mask) armed, and on the hooked loop
// with permHook — and fails on any difference. It returns the
// masked-direct machine, its activation count, and its error.
func permDiff(t *testing.T, label string, p *Program, d, fd Device, op Opcode, mask, budget uint64, proto *Machine) (*Machine, uint64, error) {
	t.Helper()
	st := proto.Snapshot()
	md := NewMachine(1)
	md.Restore(st)
	md.ArmPermanent(fd, op, mask)
	errD := md.Run(d, p, budget)

	mh := NewMachine(1)
	mh.Restore(st)
	var hits uint64
	mh.SetFaultHook(permHook(fd, op, mask, &hits))
	errH := mh.Run(d, p, budget)

	machinesEqual(t, label, md, mh, errD, errH)
	if md.Activations() != hits {
		t.Fatalf("%s: masked-direct activations %d, hooked %d", label, md.Activations(), hits)
	}
	if _, _, hooked, _ := md.TierCounts(d); hooked != 0 {
		t.Fatalf("%s: masked-direct run executed %d hooked instructions", label, hooked)
	}
	return md, hits, errD
}

// randomTriple draws a fault: mostly on the run device and on an opcode
// the program contains (so it activates), otherwise anywhere in the ISA.
func randomTriple(rng *rand.Rand, p *Program, d Device) (Device, Opcode, uint64) {
	fd := d
	if rng.Intn(4) == 0 {
		fd = 1 - d
	}
	op := Opcode(rng.Intn(NumOpcodes))
	if rng.Intn(3) != 0 {
		op = p.Code[rng.Intn(len(p.Code))].Op
	}
	return fd, op, 1 << uint(rng.Intn(64))
}

// TestFuzzPermanentDirectVsHooked covers random whole-ISA programs
// (including ST, out-of-bounds LD/ST traps, undefined opcodes, and
// step-budget traps) and the fusion templates (where a kernel holding
// the faulted opcode must be skipped and one without it kept).
func TestFuzzPermanentDirectVsHooked(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	var stHits, oobHits, budgetHits, kernelSkips int
	note := func(op Opcode, hits uint64, err error) {
		if hits == 0 {
			return
		}
		if op == ST {
			stHits++
		}
		if tr, ok := err.(*Trap); ok {
			switch tr.Kind {
			case TrapOOB:
				oobHits++
			case TrapStepBudget:
				budgetHits++
			}
		}
	}
	for iter := 0; iter < 400; iter++ {
		p := randomProgram(rng)
		proto := protoMachine(64, int64(iter)*7+3)
		d := Device(iter % 2)
		for k := 0; k < 3; k++ {
			fd, op, mask := randomTriple(rng, p, d)
			for _, budget := range fuzzBudgets {
				_, hits, err := permDiff(t, "fuzz/"+op.String(), p, d, fd, op, mask, budget, proto)
				note(op, hits, err)
			}
		}
	}
	builders := templateBuilders()
	for iter := 0; iter < 400; iter++ {
		p := builders[iter%len(builders)](rng)
		proto := protoMachine(8+rng.Intn(192), int64(iter)+7000)
		budget := uint64(rng.Intn(2500))
		fd, op, mask := randomTriple(rng, p, GPU)
		_, hits, err := permDiff(t, p.Name+"/"+op.String(), p, GPU, fd, op, mask, budget, proto)
		note(op, hits, err)
		if fd == GPU && hits > 0 && p.plan != nil {
			for _, k := range p.plan.kernels {
				if k.ops&(1<<op) != 0 {
					kernelSkips++
					break
				}
			}
		}
	}
	if stHits == 0 || oobHits == 0 || budgetHits == 0 || kernelSkips == 0 {
		t.Errorf("coverage: %d ST, %d OOB-trap, %d budget-trap activating runs, %d kernel skips; want all > 0",
			stHits, oobHits, budgetHits, kernelSkips)
	}
}

// TestPermanentKernelSkip pins the fusion policy of an armed machine:
// only kernels whose code holds the faulted opcode leave tier 1, and a
// fault on the other device (or on an opcode the program never runs)
// leaves every kernel fused.
func TestPermanentKernelSkip(t *testing.T) {
	p := buildScoreLike(10, 100, 9)
	wantKernels(t, p, "mov-run", "score-loop")
	proto := protoMachine(256, 11)
	fusedWith := func(fd Device, op Opcode) (uint64, uint64) {
		m, hits, err := permDiff(t, "score/"+op.String(), p, GPU, fd, op, 1<<40, 1<<30, proto)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		fused, _, _, _ := m.TierCounts(GPU)
		return fused, hits
	}
	all, _ := fusedWith(CPU, FMAX)
	if all == 0 {
		t.Fatal("unarmed device ran no fused kernels")
	}
	if fused, hits := fusedWith(GPU, FTANH); fused != all || hits != 0 {
		t.Errorf("absent opcode: fused %d (want %d), hits %d (want 0)", fused, all, hits)
	}
	// The mov-run kernel claims the 5-instruction prologue: FMAX (loop
	// body only) keeps it fused, FMOVI (prologue only) keeps the loop.
	const prologue = 5
	if fused, hits := fusedWith(GPU, FMAX); fused != prologue || hits == 0 {
		t.Errorf("FMAX fault: fused %d (want %d), hits %d", fused, prologue, hits)
	}
	if fused, hits := fusedWith(GPU, FMOVI); fused != all-prologue || hits != 1 {
		t.Errorf("FMOVI fault: fused %d (want %d), hits %d (want 1)", fused, all-prologue, hits)
	}
}

// TestPermanentArmingRules: control-flow opcodes arm nothing, Disarm
// restores fault-free execution, and a hook and an armed permanent
// fault cannot coexist on one machine.
func TestPermanentArmingRules(t *testing.T) {
	p := buildScoreLike(10, 100, 9)
	proto := protoMachine(256, 12)
	if _, hits, _ := permDiff(t, "score/JMP", p, GPU, GPU, JMP, 1, 1<<30, proto); hits != 0 {
		t.Errorf("JMP fault activated %d times", hits)
	}

	m := NewMachine(1)
	m.Restore(proto.Snapshot())
	m.ArmPermanent(GPU, FMAX, 1<<40)
	m.Disarm()
	ref := NewMachine(1)
	ref.Restore(proto.Snapshot())
	machinesEqual(t, "disarmed", m, ref, m.Run(GPU, p, 1<<30), ref.Run(GPU, p, 1<<30))
	if m.Activations() != 0 {
		t.Errorf("disarmed machine counted %d activations", m.Activations())
	}

	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	armed := NewMachine(1)
	armed.ArmPermanent(GPU, FADD, 1)
	mustPanic("SetFaultHook on an armed machine", func() { armed.SetFaultHook(func(WriteEvent) uint64 { return 0 }) })
	hooked := NewMachine(1)
	hooked.SetFaultHook(func(WriteEvent) uint64 { return 0 })
	mustPanic("ArmPermanent on a hooked machine", func() { hooked.ArmPermanent(GPU, FADD, 1) })
}

// RunLanes has no masked-direct support in its lockstep loop: a pack
// holding an armed machine must run solo, exactly like per-machine Run.
func TestRunLanesKeepsPermanentFault(t *testing.T) {
	p := buildScoreLike(10, 100, 9)
	protos := []*Machine{protoMachine(256, 1), protoMachine(256, 2), protoMachine(256, 3)}
	lanes := make([]*Machine, len(protos))
	solos := make([]*Machine, len(protos))
	for k, pr := range protos {
		lanes[k], solos[k] = NewMachine(1), NewMachine(1)
		lanes[k].Restore(pr.Snapshot())
		solos[k].Restore(pr.Snapshot())
	}
	lanes[1].ArmPermanent(GPU, FMAX, 1<<52)
	solos[1].ArmPermanent(GPU, FMAX, 1<<52)
	errs := RunLanes(GPU, p, 1<<30, lanes)
	for k := range lanes {
		machinesEqual(t, "lane", lanes[k], solos[k], errs[k], solos[k].Run(GPU, p, 1<<30))
		if lanes[k].Activations() != solos[k].Activations() {
			t.Fatalf("lane %d: activations %d, solo %d", k, lanes[k].Activations(), solos[k].Activations())
		}
	}
	if lanes[1].Activations() == 0 {
		t.Fatal("armed lane never activated")
	}
}
