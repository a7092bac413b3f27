package main

import (
	"fmt"

	"diverseav/internal/core"
	"diverseav/internal/fi"
	"diverseav/internal/lab"
	"diverseav/internal/rng"
	"diverseav/internal/scenario"
	"diverseav/internal/sim"
	"diverseav/internal/vm"
)

// Size is the scale of one workload manifest. The benchmark states it
// so that runs_per_s is always "at this size".
type Size struct {
	PermStride int // every PermStride-th opcode of the permanent sweep
	Transient  int // injections per transient campaign
	Golden     int // golden runs per (scenario, mode)
	Training   int // training runs per long route per detector
	Campaigns  int // campaigns per (scenario, surface), each with its own seed
	SurfaceInj int // injections per surface-fault campaign in campaign-mix
}

// workload is one benchmark input family. Its manifest is a pure
// function of the seed; the lab never sees the seed itself.
type workload struct {
	name  string
	why   string
	sizes map[string]Size // "bench" (measured) and "tiny" (tests)
	build func(r *rng.Rand, z Size) *manifest
	// gated workloads are the ones BENCHMARK.json lists and bounds. The
	// others each run one injection path of campaign-mix on its own, to
	// find which path a change to campaign-mix's figures came from.
	gated bool
}

// detectorJob is one trained detector together with the held-out
// golden sets it is scored on for false alarms.
type detectorJob struct {
	spec    lab.DetectorSpec
	heldOut []lab.GoldenSpec
}

// manifest is everything one timed Require asks for, in collection
// order.
type manifest struct {
	campaigns []lab.CampaignSpec
	goldens   []lab.GoldenSpec
	detectors []detectorJob
}

// specs lists the manifest in submission order, as one Require takes it.
func (m *manifest) specs() []lab.Spec {
	var out []lab.Spec
	for _, s := range m.campaigns {
		out = append(out, s)
	}
	for _, s := range m.goldens {
		out = append(out, s)
	}
	for _, d := range m.detectors {
		out = append(out, d.spec)
	}
	return out
}

// expectedPlans is how many injection runs a campaign spec must yield:
// the strided opcode sweep for permanent campaigns, Sizes.Transient
// otherwise.
func expectedPlans(s lab.CampaignSpec) int {
	if s.Model == fi.Transient {
		return s.Sizes.Transient
	}
	n := 0
	for op := 0; op < vm.NumOpcodes; op++ {
		if vm.Opcode(op).Dest() != vm.DestNone {
			n++
		}
	}
	n *= s.Sizes.PermReps
	if st := s.Sizes.PermStride; st > 1 {
		n = (n + st - 1) / st
	}
	return n
}

// specRuns is how many simulation results a spec stands for: its
// injection runs, its golden runs, or its detector's training runs. A
// campaign's golden dependency is counted with the golden set.
func specRuns(s lab.Spec) int {
	switch s := s.(type) {
	case lab.CampaignSpec:
		return expectedPlans(s)
	case lab.GoldenSpec:
		return s.N
	case lab.DetectorSpec:
		return len(scenario.TrainingRoutes()) * s.PerRoute
	}
	panic(fmt.Sprintf("perfbench: unexpected spec %T", s))
}

// runsAsked counts the closed-loop simulation results the manifest asks
// for: injection runs, golden runs and detector training runs. Golden
// sets shared between campaigns count once.
func (m *manifest) runsAsked() int {
	n := 0
	for _, g := range m.allGoldens() {
		n += g.N
	}
	for _, c := range m.campaigns {
		n += expectedPlans(c)
	}
	for _, d := range m.detectors {
		n += specRuns(d.spec)
	}
	return n
}

// allGoldens lists the distinct golden sets of the manifest, explicit or
// campaign dependencies, in first-use order.
func (m *manifest) allGoldens() []lab.GoldenSpec {
	seen := map[string]bool{}
	var out []lab.GoldenSpec
	add := func(g lab.GoldenSpec) {
		if k := g.Key(); !seen[k] {
			seen[k] = true
			out = append(out, g)
		}
	}
	for _, c := range m.campaigns {
		add(c.Golden)
	}
	for _, g := range m.goldens {
		add(g)
	}
	return out
}

// seed64 draws a nonzero spec seed (zero would select a key-derived one,
// identical for every benchmark seed).
func seed64(r *rng.Rand) uint64 {
	for {
		if s := r.Uint64() >> 1; s != 0 {
			return s
		}
	}
}

// targets are the devices an instruction-surface campaign is drawn from.
var targets = []vm.Device{vm.GPU, vm.CPU}

var workloads = []workload{
	{
		name: "campaign-mix",
		why:  "every injection path in one manifest: permanent hooked VM loop, transient lanes and the surface-fault executor",
		sizes: map[string]Size{
			"bench": {PermStride: 34, Transient: lab.DefaultLaneWidth, SurfaceInj: 4, Campaigns: 1, Golden: 1},
			"tiny":  {PermStride: 34, Transient: 4, SurfaceInj: 3, Campaigns: 1, Golden: 1},
		},
		build: func(r *rng.Rand, z Size) *manifest {
			m := &manifest{}
			for _, sc := range scenario.SafetyCritical() {
				golden := lab.GoldenSpec{Scenario: sc.Name, Mode: sim.RoundRobin, N: z.Golden, Seed: seed64(r)}
				base := lab.CampaignSpec{Scenario: sc.Name, Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Transient, Golden: golden}

				perm := base
				perm.Target, perm.Model = targets[r.Intn(2)], fi.Permanent
				perm.Sizes = lab.Sizes{PermReps: 1, PermStride: z.PermStride, Golden: z.Golden}
				perm.Seed = seed64(r)

				instr := base
				instr.Target = targets[r.Intn(2)]
				instr.Sizes = lab.Sizes{Transient: z.Transient, Golden: z.Golden}
				instr.Seed = seed64(r)
				m.campaigns = append(m.campaigns, perm, instr)

				for _, surface := range []string{fi.SurfaceSensor, fi.SurfaceHallucinate} {
					for k := 0; k < z.Campaigns; k++ {
						c := base
						c.Surface = surface
						c.Sizes = lab.Sizes{Transient: z.SurfaceInj, Golden: z.Golden}
						c.Seed = seed64(r)
						m.campaigns = append(m.campaigns, c)
					}
				}
			}
			return m
		},
		gated: true,
	},
	{
		name: "perm-sweep",
		why:  "permanent instruction faults: every run is the whole agent on the hooked VM loop, few long jobs",
		sizes: map[string]Size{
			"bench": {PermStride: 34, Golden: 1},
			"tiny":  {PermStride: 34, Golden: 1},
		},
		build: func(r *rng.Rand, z Size) *manifest {
			m := &manifest{}
			for _, sc := range scenario.SafetyCritical() {
				target := targets[r.Intn(2)]
				m.campaigns = append(m.campaigns, lab.CampaignSpec{
					Scenario: sc.Name, Mode: sim.RoundRobin, Target: target, Model: fi.Permanent,
					Sizes:  lab.Sizes{PermReps: 1, PermStride: z.PermStride, Golden: z.Golden},
					Seed:   seed64(r),
					Golden: lab.GoldenSpec{Scenario: sc.Name, Mode: sim.RoundRobin, N: z.Golden, Seed: seed64(r)},
				})
			}
			return m
		},
	},
	{
		name: "transient-lanes",
		why:  "transient instruction faults: checkpoint, fork, splice and lockstep lanes, many short runs",
		sizes: map[string]Size{
			"bench": {Transient: lab.DefaultLaneWidth, Golden: 1},
			"tiny":  {Transient: 4, Golden: 1},
		},
		build: func(r *rng.Rand, z Size) *manifest {
			m := &manifest{}
			for _, sc := range scenario.SafetyCritical() {
				golden := lab.GoldenSpec{Scenario: sc.Name, Mode: sim.RoundRobin, N: z.Golden, Seed: seed64(r)}
				for _, target := range targets {
					m.campaigns = append(m.campaigns, lab.CampaignSpec{
						Scenario: sc.Name, Mode: sim.RoundRobin, Target: target, Model: fi.Transient,
						Sizes: lab.Sizes{Transient: z.Transient, Golden: z.Golden},
						Seed:  seed64(r), Golden: golden,
					})
				}
			}
			return m
		},
	},
	{
		name: "surface-mix",
		why:  "sensor and perception-interface faults: the second campaign executor, fused VM, rendering dominates",
		sizes: map[string]Size{
			"bench": {Transient: 4, Golden: 1, Campaigns: 4},
			"tiny":  {Transient: 3, Golden: 1, Campaigns: 1},
		},
		build: func(r *rng.Rand, z Size) *manifest {
			m := &manifest{}
			for _, sc := range scenario.SafetyCritical() {
				golden := lab.GoldenSpec{Scenario: sc.Name, Mode: sim.RoundRobin, N: z.Golden, Seed: seed64(r)}
				for _, surface := range []string{fi.SurfaceSensor, fi.SurfaceHallucinate} {
					for k := 0; k < z.Campaigns; k++ {
						m.campaigns = append(m.campaigns, lab.CampaignSpec{
							Scenario: sc.Name, Mode: sim.RoundRobin, Target: vm.GPU, Model: fi.Transient,
							Sizes: lab.Sizes{Transient: z.Transient, Golden: z.Golden},
							Seed:  seed64(r), Golden: golden, Surface: surface,
						})
					}
				}
			}
			return m
		},
	},
	{
		name: "fault-free-train",
		why:  "no injection: golden sets and detector training in all three agent modes, scored for false alarms",
		sizes: map[string]Size{
			"bench": {Golden: 1, Training: 1},
			"tiny":  {Golden: 1, Training: 1},
		},
		build: func(r *rng.Rand, z Size) *manifest {
			m := &manifest{}
			for _, dm := range []struct {
				mode    sim.Mode
				compare core.CompareMode
			}{
				{sim.RoundRobin, core.CompareAlternating},
				{sim.Duplicate, core.CompareDuplicate},
				{sim.Single, core.CompareTemporal},
			} {
				job := detectorJob{spec: lab.DetectorSpec{
					Cfg: core.DefaultConfig(), Mode: dm.mode, Compare: dm.compare,
					PerRoute: z.Training, Seed: seed64(r),
				}}
				for _, sc := range scenario.SafetyCritical() {
					g := lab.GoldenSpec{Scenario: sc.Name, Mode: dm.mode, N: z.Golden, Seed: seed64(r)}
					m.goldens = append(m.goldens, g)
					job.heldOut = append(job.heldOut, g)
				}
				m.detectors = append(m.detectors, job)
			}
			return m
		},
		gated: true,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
		names = append(names, workloads[i].name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// manifestFor builds the workload's manifest for a seed and size. Each
// workload draws from its own stream, so one seed gives unrelated
// inputs to different workloads.
func (w *workload) manifestFor(seed uint64, size string) (*manifest, error) {
	z, ok := w.sizes[size]
	if !ok {
		return nil, fmt.Errorf("workload %s has no size %q", w.name, size)
	}
	return w.build(rng.New(seed).Split(w.name), z), nil
}
