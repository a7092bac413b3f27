package sensorfault

import (
	"bytes"
	"reflect"
	"testing"

	"diverseav/internal/fi"
	"diverseav/internal/rng"
	"diverseav/internal/sensor"
	"diverseav/internal/vm"
)

// harness captures the frame hook a surface registers when it arms.
type harness struct{ hook fi.FrameHook }

func (h *harness) Agents() int             { return 2 }
func (h *harness) SharedProcessor() bool   { return true }
func (h *harness) Machine(int) *vm.Machine { return nil }
func (h *harness) OnFrames(f fi.FrameHook) { h.hook = f }
func (h *harness) OnOutput(fi.OutputHook)  {}

func arm(p Plan) (fi.Surface, fi.FrameHook) {
	s := p.New()
	var h harness
	s.Arm(&h)
	return s, h.hook
}

// window is the corruption window of every plan below; the tests step
// through [0, stepsRun) so they see before, during and after it.
const (
	winStart = 4
	winLen   = 5
	stepsRun = 12
)

// kindPlans is one plan per kind and camera.
func kindPlans() []Plan {
	var plans []Plan
	for cam := 0; cam < 3; cam++ {
		plans = append(plans,
			Plan{Kind: BitFlip, Camera: cam, Step: winStart, Duration: winLen, Pixels: 200, Bit: 5, Seed: 77},
			Plan{Kind: ChannelDrop, Camera: cam, Step: winStart, Duration: winLen, Channel: 2},
			Plan{Kind: Freeze, Camera: cam, Step: winStart, Duration: winLen},
		)
	}
	return plans
}

func randomFrames(r *rng.Rand) [3]sensor.Frame {
	var fr [3]sensor.Frame
	for i := range fr {
		fr[i] = sensor.NewFrame()
		for j := range fr[i] {
			fr[i][j] = byte(r.Uint64())
		}
	}
	return fr
}

func cloneFrames(fr [3]sensor.Frame) [3]sensor.Frame {
	var out [3]sensor.Frame
	for i := range fr {
		out[i] = append(sensor.Frame(nil), fr[i]...)
	}
	return out
}

// TestCorruptWritesOnlyNamedBytes: each kind changes only the target
// camera's frame, only inside its window, and only the bytes it names —
// single-bit flips of the configured bit, the dropped channel's bytes
// (to zero), or, for Freeze, a replay of the window's first frame.
func TestCorruptWritesOnlyNamedBytes(t *testing.T) {
	for _, p := range kindPlans() {
		s, hook := arm(p)
		r := rng.New(1)
		var frozen sensor.Frame
		for step := 0; step < stepsRun; step++ {
			in := randomFrames(r)
			fr := cloneFrames(in)
			hook(step, &fr)
			live := step >= p.Step && step < p.End()
			for cam := range fr {
				if (!live || cam != p.Camera) && !bytes.Equal(fr[cam], in[cam]) {
					t.Fatalf("%s step %d: camera %d changed", p, step, cam)
				}
			}
			if !live {
				continue
			}
			got, was := fr[p.Camera], in[p.Camera]
			switch p.Kind {
			case BitFlip:
				changed := 0
				for i := range got {
					if d := got[i] ^ was[i]; d != 0 {
						changed++
						if d != 1<<uint(p.Bit) {
							t.Fatalf("%s step %d: byte %d xor %#x, want bit %d only", p, step, i, d, p.Bit)
						}
					}
				}
				if changed == 0 || changed > p.Pixels {
					t.Fatalf("%s step %d: %d bytes flipped, want 1..%d", p, step, changed, p.Pixels)
				}
			case ChannelDrop:
				for i := range got {
					want := was[i]
					if i%3 == p.Channel {
						want = 0
					}
					if got[i] != want {
						t.Fatalf("%s step %d: byte %d = %d, want %d", p, step, i, got[i], want)
					}
				}
			case Freeze:
				if step == p.Step {
					frozen = append(sensor.Frame(nil), was...)
				}
				if !bytes.Equal(got, frozen) {
					t.Fatalf("%s step %d: frame is not the window's first frame", p, step)
				}
			}
		}
		if got := s.Activations(); got != uint64(p.Duration) {
			t.Errorf("%s: %d activations, want %d", p, got, p.Duration)
		}
		if s.Quiescent(p.End()-1) || !s.Quiescent(p.End()) {
			t.Errorf("%s: Quiescent does not switch at the window end %d", p, p.End())
		}
	}
}

// TestCorruptIsPixelLocal: the bytes a kind writes at a pixel depend on
// no other pixel. Two frame streams that agree on a random half of the
// pixels and differ everywhere else must agree on that half after the
// corruption, at every step. This is what lets the runner render only
// the pixels the agent reads (fi.FrameHook).
func TestCorruptIsPixelLocal(t *testing.T) {
	mr := rng.New(9)
	keep := make([]bool, sensor.FrameW*sensor.FrameH)
	for i := range keep {
		keep[i] = mr.Bool(0.5)
	}
	for _, p := range kindPlans() {
		_, hookA := arm(p)
		_, hookB := arm(p)
		ra, rb := rng.New(2), rng.New(3)
		for step := 0; step < stepsRun; step++ {
			a := randomFrames(ra)
			b := randomFrames(rb)
			for cam := range a {
				for px, k := range keep {
					if k {
						copy(b[cam][3*px:3*px+3], a[cam][3*px:3*px+3])
					}
				}
			}
			hookA(step, &a)
			hookB(step, &b)
			for cam := range a {
				for px, k := range keep {
					if k && !bytes.Equal(a[cam][3*px:3*px+3], b[cam][3*px:3*px+3]) {
						t.Fatalf("%s step %d camera %d: pixel %d depends on other pixels", p, step, cam, px)
					}
				}
			}
		}
	}
}

// TestSnapshotRestore: the activation counter round-trips through
// Snapshot/Restore, a snapshot does not alias the live counter, and an
// empty restore resets it.
func TestSnapshotRestore(t *testing.T) {
	for _, p := range kindPlans() {
		s, hook := arm(p)
		r := rng.New(4)
		for step := 0; step < p.Step+2; step++ {
			fr := randomFrames(r)
			hook(step, &fr)
		}
		snap := s.Snapshot()
		fr := randomFrames(r)
		hook(p.Step+2, &fr)

		fork, _ := arm(p)
		fork.Restore(snap)
		if got, want := fork.Activations(), uint64(2); got != want {
			t.Errorf("%s: restored %d activations, want %d", p, got, want)
		}
		if s.Activations() != 3 {
			t.Errorf("%s: live counter %d after one more step, want 3", p, s.Activations())
		}
		fork.Restore(nil)
		if fork.Activations() != 0 {
			t.Errorf("%s: empty restore left %d activations", p, fork.Activations())
		}
	}
}

// TestPlansDeterministic: the planner's campaign is a pure function of
// the seed, every window lies inside the run, and the permanent model
// sweeps every kind over every camera.
func TestPlansDeterministic(t *testing.T) {
	const steps, n = 600, 7
	for _, model := range []fi.Model{fi.Transient, fi.Permanent} {
		a := planner{}.Plans(rng.New(11), nil, vm.GPU, model, steps, 0, n)
		b := planner{}.Plans(rng.New(11), nil, vm.GPU, model, steps, 0, n)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("model %v: same seed gave different plans", model)
		}
		if c := (planner{}).Plans(rng.New(12), nil, vm.GPU, model, steps, 0, n); reflect.DeepEqual(a, c) {
			t.Errorf("model %v: seeds 11 and 12 gave the same plans", model)
		}
		want := n
		if model == fi.Permanent {
			want = n * int(numKinds) * 3
		}
		if len(a) != want {
			t.Fatalf("model %v: %d plans, want %d", model, len(a), want)
		}
		for _, sp := range a {
			p := sp.(Plan)
			if p.Step < 0 || p.Duration <= 0 || p.End() > steps {
				t.Errorf("model %v: plan %s window [%d, %d) outside [0, %d)", model, p, p.Step, p.End(), steps)
			}
		}
	}
	if got := (planner{}).Plans(rng.New(11), nil, vm.GPU, fi.Transient, steps, 0, 0); len(got) != 0 {
		t.Errorf("n = 0 gave %d plans", len(got))
	}
}
