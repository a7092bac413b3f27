package main

import (
	"bytes"
	"fmt"

	"diverseav/internal/lab"
	"diverseav/internal/obs"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"runs_per_s", "1/s", "higher"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

// obsCounts are per-layer metrics read straight from the obs registry
// as deltas over the timed section.
var obsCounts = []metricDef{
	{"vm.instr_hooked", "count", "lower"},
	{"vm.instr_batched", "count", "higher"},
	{"vm.instr_fused", "count", "higher"},
	{"vm.instr_scalar", "count", "lower"},
	{"fi.activations", "count", "higher"},
	{"fi.plans_permanent", "count", "higher"},
	{"fi.plans_transient", "count", "higher"},
	{"campaign.runs_batched", "count", "higher"},
	{"campaign.runs_cold", "count", "lower"},
	{"campaign.runs_forked", "count", "higher"},
	{"sim.steps", "count", "lower"},
	{"sim.steps_spliced", "count", "higher"},
	{"sim.runs_spliced", "count", "higher"},
	{"sim.runs_early_exit", "count", "higher"},
	{"sim.dues", "count", "lower"},
	{"sim.checkpoints", "count", "lower"},
	{"sim.checkpoint_reuse", "count", "higher"},
	{"lab.computed", "count", "lower"},
	{"par.recruited", "count", "higher"},
	{"par.inline", "count", "lower"},
}

// schedulingCounts depend on goroutine timing or GC (pool admission,
// sync.Pool reuse), so they are not expected to repeat exactly.
var schedulingCounts = map[string]bool{
	"par.recruited":        true,
	"par.inline":           true,
	"sim.checkpoint_reuse": true,
}

// cpuLayers are the packages whose flat CPU-profile time the traced run
// reports as <layer>.cpu_s.
var cpuLayers = []string{"vm", "fi", "sensor", "agent", "physics", "sim", "geom", "lab", "runtime"}

// derived are per-layer metrics computed from counts, ledger job spans,
// benchmark spans and the run's own clocks.
var derived = []metricDef{
	{"vm.fused_share", "ratio", "higher"},
	{"sim.lane_fill", "ratio", "higher"},
	{"sim.splice_share", "ratio", "higher"},
	{"lab.golden_s", "s", "lower"},
	{"lab.profile_s", "s", "lower"},
	{"lab.campaign_s", "s", "lower"},
	{"lab.detector_s", "s", "lower"},
	{"lab.queue_s", "s", "lower"},
	{"par.busy_cores", "cores", "higher"},
	{"core.detect_s", "s", "lower"},
	{"core.false_alarms", "count", "lower"},
	// drive computes this one from paired traced and untraced reps:
	// (traced ÷ untraced runs_per_s) − 1.
	{"obs.trace_overhead", "ratio", "higher"},
}

// perLayer is every metric of a traced run, in print order.
func perLayer() []metricDef {
	out := append([]metricDef{}, obsCounts...)
	for _, l := range cpuLayers {
		out = append(out, metricDef{l + ".cpu_s", "s", "lower"})
	}
	return append(out, derived...)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reaches).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics computes a traced rep's per-layer metrics, all but
// obs.trace_overhead, from the obs registry deltas, the lab ledger's job
// spans, the CPU profile and the benchmark's own spans.
func layerMetrics(after, before map[string]int64, ledger, profile []byte, tr *tracer, res *repResult) (map[string]float64, error) {
	out := map[string]float64{}
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	for _, m := range obsCounts {
		out[m.name] = delta(m.name)
	}

	fused, scalar, hooked, batched := delta("vm.instr_fused"), delta("vm.instr_scalar"), delta("vm.instr_hooked"), delta("vm.instr_batched")
	out["vm.fused_share"] = ratio(fused, fused+scalar+hooked+batched)
	out["sim.lane_fill"] = ratio(delta("sim.lane_runs"), delta("sim.lane_groups")*lab.DefaultLaneWidth)
	spliced := delta("sim.steps_spliced")
	out["sim.splice_share"] = ratio(spliced, spliced+delta("sim.steps"))

	recs, err := obs.ReadLedger(bytes.NewReader(ledger))
	if err != nil {
		return nil, fmt.Errorf("read ledger: %w", err)
	}
	phaseS := map[string]float64{}
	var queueS float64
	for _, r := range recs {
		// Job spans only: a campaign job's span already covers its
		// per-injection "run" spans.
		if r.Type != obs.RecordSpan || r.Span.Phase == "run" {
			continue
		}
		phaseS[r.Span.Phase] += float64(r.Span.ExecNs) / 1e9
		queueS += float64(r.Span.QueueNs) / 1e9
	}
	for _, p := range []string{"golden", "profile", "campaign", "detector"} {
		out["lab."+p+"_s"] = phaseS[p]
	}
	out["lab.queue_s"] = queueS
	out["par.busy_cores"] = ratio(res.CPUS, res.WallS*(1-res.StealShare))
	out["core.detect_s"] = tr.total("detect").Seconds()
	out["core.false_alarms"] = float64(res.FalseAlarms)

	flat, err := flatCPU(profile)
	if err != nil {
		return nil, err
	}
	byLayer := map[string]int64{}
	for fn, ns := range flat {
		byLayer[layerOf(fn)] += ns
	}
	for _, l := range cpuLayers {
		out[l+".cpu_s"] = float64(byLayer[l]) / 1e9
	}
	return out, nil
}
