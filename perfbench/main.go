// Command perfbench is the repository's campaign-throughput benchmark.
//
// One invocation measures one workload for a given time. It builds the
// workload's lab spec manifest from the seed and runs it in a series of
// fresh processes ("reps"), each of which submits the whole manifest in
// a single Lab.Require — the first one of its process, as every
// cmd/experiments user pays it. The last stdout line is the result
// object: with -trace 0 the end-to-end metrics (medians over reps), with
// -trace 1 the per-layer metrics of traced reps. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// setupSamples is how many extra processes a run starts that only set
// up, so setup_s is a median even when a run has one timed rep.
const setupSamples = 9

// maxProcs caps every rep's GOMAXPROCS, so runs on hosts of different
// sizes schedule the lab the same way.
const maxProcs = 2

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workloadName := flag.String("workload", "", "workload name: campaign-mix or fault-free-train (gated), perm-sweep, transient-lanes or surface-mix")
	seed := flag.Uint64("seed", 1, "seed the workload's manifest is built from")
	seconds := flag.Float64("seconds", 40, "how long to keep starting reps")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced reps")
	size := flag.String("size", "bench", "manifest size: bench (measured) or tiny (tests)")
	rep := flag.Bool("rep", false, "run one rep in this process and print its raw result (how a run starts its reps)")
	traced := flag.Bool("traced", false, "with -rep: trace the rep")
	check := flag.Bool("check", false, "with -rep: run the output check after timing")
	setupOnly := flag.Bool("setup-only", false, "with -rep: stop when the manifest is ready to submit")
	flag.Parse()

	if *rep {
		res, err := runRep(repOptions{workload: *workloadName, seed: *seed, size: *size, traced: *traced, check: *check, setupOnly: *setupOnly})
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		return
	}
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := drive(os.Stdout, driveOptions{
		workload: *workloadName, seed: *seed, size: *size,
		seconds: *seconds, traced: *traceMode == 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type driveOptions struct {
	workload string
	seed     uint64
	size     string
	seconds  float64
	traced   bool
}

// repRun is one rep as its run saw it.
type repRun struct {
	res     *repResult
	traced  bool
	setupS  float64
	crashed error
}

// spawnRep runs one rep in a fresh process of this executable. extra
// are the rep flags: -traced, -check, -setup-only.
func spawnRep(o driveOptions, extra ...string) repRun {
	traced := len(extra) > 0 && extra[0] == "-traced"
	exe, err := os.Executable()
	if err != nil {
		return repRun{traced: traced, crashed: err}
	}
	args := []string{"-rep", "-workload", o.workload, "-seed", strconv.FormatUint(o.seed, 10), "-size", o.size}
	cmd := exec.Command(exe, append(args, extra...)...)
	// The rep dies with the process that started it, so a killed run leaves nothing behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	procs := runtime.NumCPU()
	if procs > maxProcs {
		procs = maxProcs
	}
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	spawned := time.Now()
	if err := cmd.Run(); err != nil {
		return repRun{traced: traced, crashed: fmt.Errorf("rep process: %w", err)}
	}
	var res repResult
	if err := json.Unmarshal(lastLine(out.Bytes()), &res); err != nil {
		return repRun{traced: traced, crashed: fmt.Errorf("rep output: %w", err)}
	}
	return repRun{res: &res, traced: traced, setupS: float64(res.SubmitUnixNs-spawned.UnixNano()) / 1e9}
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spawnReps starts the run's processes: setup-only ones, then reps
// until the time is up. Untraced runs start with the checking rep;
// traced runs alternate untraced and traced reps, so the tracing
// overhead is measured between neighbours, and the first traced rep
// runs the output check.
func spawnReps(o driveOptions) (setups []float64, reps []repRun, err error) {
	for i := 0; i < setupSamples && !o.traced; i++ {
		r := spawnRep(o, "-setup-only")
		if r.crashed != nil {
			return nil, nil, r.crashed
		}
		setups = append(setups, r.setupS)
	}
	want := 1
	if o.traced {
		want = 4
	}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for i := 0; i < want || time.Now().Before(deadline); i++ {
		var flags []string
		if o.traced && i%2 == 1 {
			flags = append(flags, "-traced")
		}
		if i == 0 && !o.traced || i == 1 && o.traced {
			flags = append(flags, "-check")
		}
		r := spawnRep(o, flags...)
		if r.crashed == nil {
			setups = append(setups, r.setupS)
		}
		reps = append(reps, r)
	}
	return setups, reps, nil
}

// drive runs one workload for the given time, checks the reps against
// each other and aggregates their metrics.
func drive(w io.Writer, o driveOptions) (*result, error) {
	wl, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	m, err := wl.manifestFor(o.seed, o.size)
	if err != nil {
		return nil, err
	}
	runsOf := map[string]int{}
	for _, s := range m.specs() {
		runsOf[s.Key()] = specRuns(s)
	}
	setups, reps, err := spawnReps(o)
	if err != nil {
		return nil, err
	}

	res := &result{Metrics: map[string]metric{}}
	var ref *repResult // the checking rep; every other rep must match its bytes
	for _, r := range reps {
		if r.res != nil && len(r.res.Checked) > 0 {
			ref = r.res
		}
	}
	var refCounts map[string]float64
	var good []repRun
	for i, r := range reps {
		res.Attempted += m.runsAsked()
		if r.crashed != nil {
			res.Failed += m.runsAsked()
			fmt.Fprintln(w, "rep failed:", r.crashed)
			continue
		}
		failed := r.res.Failed
		for _, e := range r.res.Errors {
			fmt.Fprintln(w, "error:", e)
		}
		if ref != nil && r.res != ref {
			for key, sum := range ref.Digests {
				if r.res.Digests[key] != sum {
					failed += runsOf[key]
					fmt.Fprintln(w, "error: artifact bytes differ between reps:", key)
				}
			}
		}
		if r.traced {
			if refCounts == nil {
				refCounts = r.res.Layers
			}
			for _, c := range obsCounts {
				if !schedulingCounts[c.name] && r.res.Layers[c.name] != refCounts[c.name] {
					failed += m.runsAsked()
					fmt.Fprintf(w, "error: count %s differs between traced reps: %v vs %v\n", c.name, r.res.Layers[c.name], refCounts[c.name])
				}
			}
		}
		res.Failed += failed
		if failed == 0 {
			good = append(good, r)
		}
		fmt.Fprintf(w, "rep %d traced=%v: %d runs in %.3fs (%.1f%% stolen), %.3f cpu-s, peak rss %.1f MiB, setup %.4fs, failed %d\n",
			i, r.traced, r.res.Runs, r.res.WallS, 100*r.res.StealShare, r.res.CPUS, r.res.PeakRSSMiB, r.setupS, failed)
	}
	if ref == nil {
		res.Failed += m.runsAsked()
		fmt.Fprintln(w, "error: the output check did not run")
	}
	if len(good) == 0 {
		return nil, errors.New("no rep completed without failures")
	}
	if ref != nil {
		for _, t := range ref.Tallies {
			fmt.Fprintf(w, "tally %s activated=%d sdc=%d due=%d masked=%d total=%d\n",
				t.Campaign, t.Activated, t.SDC, t.DUE, t.Masked, t.Total)
		}
		for _, key := range ref.Checked {
			fmt.Fprintln(w, "output check:", key)
		}
	}
	if len(m.detectors) > 0 {
		fmt.Fprintf(w, "false alarms per rep: %d\n", good[0].res.FalseAlarms)
	}
	fmt.Fprintf(w, "fail_ratio %g (%d of %d runs in %d reps)\n",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted, len(reps))
	res.Correct = res.Failed == 0

	pick := func(traced bool, f func(r repRun) float64) []float64 {
		var xs []float64
		for _, r := range good {
			if r.traced == traced {
				xs = append(xs, f(r))
			}
		}
		return xs
	}
	// Wall time stolen by the hypervisor is taken out: it is the other
	// guests' load, not this program's, and on a shared host it swings
	// wall time by a fifth from one minute to the next.
	rps := func(r repRun) float64 { return float64(r.res.Runs) / (r.res.WallS * (1 - r.res.StealShare)) }
	if !o.traced {
		vals := map[string]float64{
			"setup_s":      median(setups),
			"runs_per_s":   median(pick(false, rps)),
			"cpu_s":        median(pick(false, func(r repRun) float64 { return r.res.CPUS })),
			"peak_rss_mib": median(pick(false, func(r repRun) float64 { return r.res.PeakRSSMiB })),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{vals[d.name], d.unit}
		}
		return res, nil
	}
	traced, untraced := pick(true, rps), pick(false, rps)
	if len(traced) == 0 || len(untraced) == 0 {
		return nil, errors.New("need a traced and an untraced rep without failures")
	}
	for _, d := range perLayer() {
		v := median(pick(true, func(r repRun) float64 { return r.res.Layers[d.name] }))
		if d.name == "obs.trace_overhead" {
			v = median(traced)/median(untraced) - 1
		}
		res.Metrics[d.name] = metric{v, d.unit}
	}
	return res, nil
}
