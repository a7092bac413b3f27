package fi

import (
	"strings"
	"testing"

	"diverseav/internal/rng"
	"diverseav/internal/vm"
)

// buildWorkload returns a program with a mix of float, int, memory and
// control-flow instructions.
func buildWorkload() *vm.Program {
	b := vm.NewBuilder("workload")
	b.FMovI(0, 0)
	b.FMovI(1, 1.5)
	b.IMovI(0, 0)
	b.IMovI(1, 20)
	top := b.NewLabel()
	done := b.NewLabel()
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
}

func TestProfileObserve(t *testing.T) {
	m := vm.NewMachine(64)
	var prof Profile
	m.SetFaultHook(prof.Observe())
	if err := m.Run(vm.GPU, buildWorkload(), 1<<20); err != nil {
		t.Fatal(err)
	}
	if prof.InstrCount[vm.GPU] == 0 {
		t.Fatal("profile recorded no instructions")
	}
	if prof.InstrCount[vm.CPU] != 0 {
		t.Error("CPU stream should be empty")
	}
	ops := prof.ActiveOpcodes(vm.GPU)
	if len(ops) == 0 {
		t.Fatal("no active opcodes")
	}
	seen := map[vm.Opcode]bool{}
	for _, op := range ops {
		seen[op] = true
	}
	for _, want := range []vm.Opcode{vm.FMA, vm.ST, vm.LD, vm.IADDI, vm.ICMPLT} {
		if !seen[want] {
			t.Errorf("opcode %s not recorded as active", want)
		}
	}
	// Control-flow opcodes have destinations of DestNone and never reach
	// the writeback hook.
	if seen[vm.JMP] || seen[vm.HALT] {
		t.Error("control-flow opcodes must not appear in the writeback profile")
	}
}

func TestTransientInjectorFiresOnce(t *testing.T) {
	m := vm.NewMachine(64)
	var prof Profile
	m.SetFaultHook(prof.Observe())
	if err := m.Run(vm.GPU, buildWorkload(), 1<<20); err != nil {
		t.Fatal(err)
	}

	inj := NewInjector(Plan{Target: vm.GPU, Model: Transient, DynIndex: prof.InstrCount[vm.GPU] / 2, Bit: 3})
	m2 := vm.NewMachine(64)
	m2.SetFaultHook(inj.Hook)
	if err := m2.Run(vm.GPU, buildWorkload(), 1<<20); err != nil {
		t.Fatal(err)
	}
	if got := inj.Activations(); got != 1 {
		t.Errorf("activations = %d, want exactly 1", got)
	}
}

func TestTransientInjectorInactiveWhenBeyondStream(t *testing.T) {
	inj := NewInjector(Plan{Target: vm.GPU, Model: Transient, DynIndex: 1 << 40, Bit: 3})
	m := vm.NewMachine(64)
	m.SetFaultHook(inj.Hook)
	if err := m.Run(vm.GPU, buildWorkload(), 1<<20); err != nil {
		t.Fatal(err)
	}
	if inj.Activations() != 0 {
		t.Error("fault beyond the stream must not activate")
	}
}

func TestTransientInjectorIgnoresOtherDevice(t *testing.T) {
	inj := NewInjector(Plan{Target: vm.CPU, Model: Transient, DynIndex: 1, Bit: 3})
	m := vm.NewMachine(64)
	m.SetFaultHook(inj.Hook)
	if err := m.Run(vm.GPU, buildWorkload(), 1<<20); err != nil {
		t.Fatal(err)
	}
	if inj.Activations() != 0 {
		t.Error("CPU-targeted fault activated on GPU stream")
	}
}

func TestPermanentInjectorHitsEveryInstance(t *testing.T) {
	// Count FMA instances via a profile, then verify the permanent
	// injector corrupts each of them.
	m := vm.NewMachine(64)
	fmaCount := 0
	m.SetFaultHook(func(ev vm.WriteEvent) uint64 {
		if ev.Op == vm.FMA {
			fmaCount++
		}
		return 0
	})
	if err := m.Run(vm.GPU, buildWorkload(), 1<<20); err != nil {
		t.Fatal(err)
	}
	if fmaCount == 0 {
		t.Fatal("workload has no FMA")
	}

	inj := NewInjector(Plan{Target: vm.GPU, Model: Permanent, Opcode: vm.FMA, Bit: 1})
	m2 := vm.NewMachine(64)
	inj.Arm(m2)
	if err := m2.Run(vm.GPU, buildWorkload(), 1<<20); err != nil {
		t.Fatal(err)
	}
	if got := int(inj.Activations()); got != fmaCount {
		t.Errorf("activations = %d, want %d (every dynamic instance)", got, fmaCount)
	}
}

func TestPermanentFaultOnAddressRegisterTraps(t *testing.T) {
	// Corrupting the sign bit of every IADDI destination makes the
	// store/load addresses negative while keeping the loop condition
	// true: the run must trap (the paper's segfault-dominated CPU
	// outcome).
	inj := NewInjector(Plan{Target: vm.GPU, Model: Permanent, Opcode: vm.IADDI, Bit: 63})
	m := vm.NewMachine(64)
	inj.Arm(m)
	err := m.Run(vm.GPU, buildWorkload(), 1<<20)
	if err == nil {
		t.Fatal("expected a trap from corrupted addresses")
	}
}

func TestPlanMask(t *testing.T) {
	p := Plan{Bit: 5}
	if p.Mask() != 1<<5 {
		t.Errorf("mask = %x", p.Mask())
	}
	p = Plan{Bit: 63}
	if p.Mask() != 1<<63 {
		t.Errorf("mask = %x", p.Mask())
	}
}

func TestPlanString(t *testing.T) {
	tr := Plan{Target: vm.GPU, Model: Transient, DynIndex: 9, Bit: 2}
	if s := tr.String(); !strings.Contains(s, "transient") || !strings.Contains(s, "GPU") {
		t.Errorf("transient plan string: %q", s)
	}
	pm := Plan{Target: vm.CPU, Model: Permanent, Opcode: vm.FMUL, Bit: 2}
	if s := pm.String(); !strings.Contains(s, "permanent") || !strings.Contains(s, "FMUL") {
		t.Errorf("permanent plan string: %q", s)
	}
}

func TestTransientPlansWithinStream(t *testing.T) {
	var prof Profile
	prof.InstrCount[vm.GPU] = 1000
	p := NewPlanner(rng.New(1))
	plans := p.TransientPlans(vm.GPU, &prof, 200)
	if len(plans) != 200 {
		t.Fatalf("plans = %d", len(plans))
	}
	for _, pl := range plans {
		if pl.DynIndex < 1 || pl.DynIndex > 1000 {
			t.Fatalf("dyn index %d outside stream", pl.DynIndex)
		}
		if pl.Model != Transient || pl.Target != vm.GPU {
			t.Fatalf("wrong plan shape: %+v", pl)
		}
		if pl.Bit > 63 {
			t.Fatalf("bit %d out of range", pl.Bit)
		}
	}
}

func TestTransientPlansEmptyStream(t *testing.T) {
	// An empty instruction stream has nothing to inject into: the
	// planner returns no plans rather than never-activating ones.
	var prof Profile
	p := NewPlanner(rng.New(1))
	if plans := p.TransientPlans(vm.CPU, &prof, 5); len(plans) != 0 {
		t.Errorf("empty stream produced %d plans, want 0", len(plans))
	}
}

func TestPlannerDegenerateInputs(t *testing.T) {
	prof := &Profile{}
	prof.InstrCount[vm.GPU] = 1000
	cases := []struct {
		name  string
		plans []Plan
	}{
		{"transient nil profile", NewPlanner(rng.New(3)).TransientPlans(vm.GPU, nil, 5)},
		{"transient n=0", NewPlanner(rng.New(4)).TransientPlans(vm.GPU, prof, 0)},
		{"transient n<0", NewPlanner(rng.New(5)).TransientPlans(vm.GPU, prof, -3)},
		{"permanent reps=0", NewPlanner(rng.New(6)).PermanentPlans(vm.GPU, 0)},
		{"permanent reps<0", NewPlanner(rng.New(7)).PermanentPlans(vm.CPU, -1)},
	}
	for _, c := range cases {
		if c.plans == nil {
			t.Errorf("%s: returned nil, want empty slice", c.name)
		}
		if len(c.plans) != 0 {
			t.Errorf("%s: returned %d plans, want 0", c.name, len(c.plans))
		}
	}
}

func TestPermanentPlansCoverISA(t *testing.T) {
	p := NewPlanner(rng.New(2))
	plans := p.PermanentPlans(vm.GPU, 1)
	seen := map[vm.Opcode]bool{}
	for _, pl := range plans {
		if pl.Model != Permanent {
			t.Fatalf("wrong model: %+v", pl)
		}
		if pl.Opcode.Dest() == vm.DestNone {
			t.Fatalf("plan targets no-destination opcode %s", pl.Opcode)
		}
		seen[pl.Opcode] = true
	}
	// Every opcode with a destination must be covered.
	for op := 0; op < vm.NumOpcodes; op++ {
		o := vm.Opcode(op)
		if o.Dest() != vm.DestNone && !seen[o] {
			t.Errorf("opcode %s missing from permanent sweep", o)
		}
	}
	// Three reps triple the count.
	if got := len(p.PermanentPlans(vm.GPU, 3)); got != 3*len(plans) {
		t.Errorf("3 reps gave %d plans, want %d", got, 3*len(plans))
	}
}

func TestPlannerDeterminism(t *testing.T) {
	var prof Profile
	prof.InstrCount[vm.GPU] = 500
	a := NewPlanner(rng.New(9)).TransientPlans(vm.GPU, &prof, 50)
	b := NewPlanner(rng.New(9)).TransientPlans(vm.GPU, &prof, 50)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("plans diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestInjectedRunDiffersFromGolden(t *testing.T) {
	runOnce := func(inj *Injector) float64 {
		m := vm.NewMachine(64)
		if inj != nil {
			inj.Arm(m)
		}
		if err := m.Run(vm.GPU, buildWorkload(), 1<<20); err != nil {
			return -1 // trap: certainly "different"
		}
		return m.Float(vm.GPU, 0)
	}
	golden := runOnce(nil)
	faulty := runOnce(NewInjector(Plan{Target: vm.GPU, Model: Permanent, Opcode: vm.FMA, Bit: 50}))
	if golden == faulty {
		t.Error("high-bit permanent FMA corruption did not change the result")
	}
}

// TestQuiescent pins the terminal-decidability gate behind reconvergence
// splicing: a transient injector is quiescent exactly when it has fired
// or when the device counter has provably passed its DynIndex; a
// permanent injector never is.
func TestQuiescent(t *testing.T) {
	tr := NewInjector(Plan{Target: vm.GPU, Model: Transient, DynIndex: 100, Bit: 3})
	if tr.Quiescent(0) {
		t.Error("unfired transient with count 0 < DynIndex reported quiescent")
	}
	if tr.Quiescent(99) {
		t.Error("unfired transient with count 99 < DynIndex 100 reported quiescent")
	}
	if !tr.Quiescent(100) {
		t.Error("transient with count == DynIndex not quiescent (the target instruction already executed)")
	}
	if !tr.Quiescent(1 << 30) {
		t.Error("transient with count past DynIndex not quiescent")
	}

	// Once fired, the single shot is spent regardless of the counter.
	fired := NewInjector(Plan{Target: vm.GPU, Model: Transient, DynIndex: 100, Bit: 3})
	fired.Restore(1)
	if !fired.Quiescent(0) {
		t.Error("fired transient not quiescent")
	}

	perm := NewInjector(Plan{Target: vm.GPU, Model: Permanent, Opcode: vm.FADD, Bit: 3})
	if perm.Quiescent(1 << 40) {
		t.Error("permanent injector reported quiescent; it corrupts every future instance")
	}
}
