package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"diverseav/internal/core"
	"diverseav/internal/lab"
	"diverseav/internal/obs"
	"diverseav/internal/sim"
)

// repOptions configures one rep: one fresh process, one manifest, one
// timed Require.
type repOptions struct {
	workload string
	seed     uint64
	size     string
	traced   bool // obs registry, lab ledger, CPU profile, benchmark spans
	check    bool // re-run a seed-chosen sample in a fresh lab after timing
	// setupOnly stops at the point of submission: the rep measures
	// nothing but its own set-up.
	setupOnly bool
}

// tally is one campaign's Table I row in verdict terms, printed so two
// sets of runs can be compared exactly.
type tally struct {
	Campaign  string `json:"campaign"`
	Activated int    `json:"activated"`
	SDC       int    `json:"sdc"`
	DUE       int    `json:"due"`
	Masked    int    `json:"masked"`
	Total     int    `json:"total"`
}

// repResult is what a rep process reports to its run on its last
// stdout line.
type repResult struct {
	SubmitUnixNs int64              `json:"submit_unix_ns"` // when the manifest was submitted
	WallS        float64            `json:"wall_s"`         // timed section
	CPUS         float64            `json:"cpu_s"`          // process CPU in the timed section
	PeakRSSMiB   float64            `json:"peak_rss_mib"`   // high-water mark at the end of the timed section
	StealShare   float64            `json:"steal_share"`    // share of busy CPU time the hypervisor took in the timed section
	Runs         int                `json:"runs"`           // simulation results asked for
	Failed       int                `json:"failed"`         // runs that panicked, went missing or mismatched
	Digests      map[string]string  `json:"digests"`        // spec key -> sha256 of its artifact bytes
	Tallies      []tally            `json:"tallies,omitempty"`
	FalseAlarms  int                `json:"false_alarms"`
	Checked      []string           `json:"checked,omitempty"` // spec keys re-run by the output check
	Errors       []string           `json:"errors,omitempty"`
	Layers       map[string]float64 `json:"layers,omitempty"` // traced reps only
}

// spanRec is one benchmark-side span: a call from the benchmark into a
// layer of the program. The benchmark's calls never nest.
type spanRec struct {
	name       string
	start, end time.Duration
}

// tracer records the benchmark's own spans. A nil *tracer records
// nothing, so untraced reps pay one nil check per call.
type tracer struct {
	t0    time.Time
	spans []spanRec
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, spanRec{name: name, start: time.Since(t.t0)})
	return len(t.spans) - 1
}

func (t *tracer) finish(id int) {
	if t != nil && id >= 0 {
		t.spans[id].end = time.Since(t.t0)
	}
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	if t != nil {
		for _, s := range t.spans {
			if s.name == name {
				d += s.end - s.start
			}
		}
	}
	return d
}

func rusage() (cpu time.Duration, maxRSSKiB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, ru.Maxrss
}

// cpuTicks reads the machine's busy and stolen CPU time from /proc/stat,
// in clock ticks. Stolen time is time a virtual CPU wanted to run but the
// hypervisor ran another guest; it is zero on bare metal, and zero (with
// ok false) where /proc/stat does not exist.
func cpuTicks() (busy, steal uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	var v [9]uint64
	for i := 1; i < 9; i++ {
		if v[i], err = strconv.ParseUint(f[i], 10, 64); err != nil {
			return 0, 0, false
		}
	}
	return v[1] + v[2] + v[3] + v[6] + v[7], v[8], true
}

// stealShare is the share of the machine's busy CPU time between two
// cpuTicks readings that the hypervisor took away.
func stealShare(busy0, steal0, busy1, steal1 uint64) float64 {
	if busy1+steal1 <= busy0+steal0 {
		return 0
	}
	return float64(steal1-steal0) / float64(busy1+steal1-busy0-steal0)
}

// collected is the manifest's artifacts as the timed section reads them.
type collected struct {
	campaigns []*lab.Campaign
	goldens   [][]*sim.Result
	detectors []*core.Detector
}

// runRep executes one rep in this process.
func runRep(o repOptions) (*repResult, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return nil, err
	}
	m, err := w.manifestFor(o.seed, o.size)
	if err != nil {
		return nil, err
	}
	res := &repResult{Runs: m.runsAsked(), Digests: map[string]string{}}

	l := lab.New()
	var tr *tracer
	var ledgerBuf, profBuf bytes.Buffer
	var ledger *obs.Ledger
	var before map[string]int64
	if o.traced {
		obs.Enable()
		ledger = obs.NewLedger(&ledgerBuf)
		l.SetLedger(ledger)
		tr = &tracer{t0: time.Now()}
		before = obs.Default().Snapshot()
		if err := pprof.StartCPUProfile(&profBuf); err != nil {
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}

	busy0, steal0, _ := cpuTicks()
	cpu0, _ := rusage()
	start := time.Now()
	res.SubmitUnixNs = start.UnixNano()
	if o.setupOnly {
		return res, nil
	}
	got, panicked := timedSection(l, m, tr, res)
	res.WallS = time.Since(start).Seconds()
	cpu1, rss := rusage()
	if busy1, steal1, ok := cpuTicks(); ok {
		res.StealShare = stealShare(busy0, steal0, busy1, steal1)
	}
	res.CPUS = (cpu1 - cpu0).Seconds()
	res.PeakRSSMiB = float64(rss) / 1024

	var after map[string]int64
	if o.traced {
		pprof.StopCPUProfile()
		after = obs.Default().Snapshot()
	}
	if panicked != "" {
		res.Failed = res.Runs
		res.Errors = append(res.Errors, "timed section panicked: "+panicked)
		return res, nil
	}
	res.Failed += verifyShapes(m, got, res)
	res.Failed += digestAll(l, m, res)
	if o.check {
		id := tr.begin("check")
		res.Failed += outputCheck(l, m, o.seed, res)
		tr.finish(id)
	}
	if o.traced {
		if err := ledger.Flush(); err != nil {
			return nil, fmt.Errorf("flush ledger: %w", err)
		}
		layers, err := layerMetrics(after, before, ledgerBuf.Bytes(), profBuf.Bytes(), tr, res)
		if err != nil {
			return nil, err
		}
		res.Layers = layers
		fmt.Fprintf(os.Stderr, "perfbench: spans require %.3fs collect %.3fs detect %.3fs check %.3fs\n",
			tr.total("require").Seconds(), tr.total("collect").Seconds(), tr.total("detect").Seconds(), tr.total("check").Seconds())
	}
	return res, nil
}

// timedSection is what runs_per_s, cpu_s and peak_rss_mib measure: the
// first Require of the process over the whole manifest, the collection
// of every artifact, and false-alarm scoring of each detector on its
// held-out golden runs. A panic anywhere in it fails the whole rep.
func timedSection(l *lab.Lab, m *manifest, tr *tracer, res *repResult) (got collected, panicked string) {
	defer func() {
		if p := recover(); p != nil {
			panicked = fmt.Sprint(p)
		}
	}()
	id := tr.begin("require")
	l.Require(m.specs()...)
	tr.finish(id)

	id = tr.begin("collect")
	for _, s := range m.campaigns {
		got.campaigns = append(got.campaigns, l.Campaign(s))
	}
	for _, g := range m.goldens {
		got.goldens = append(got.goldens, l.Golden(g))
	}
	for _, d := range m.detectors {
		got.detectors = append(got.detectors, l.Detector(d.spec))
	}
	tr.finish(id)

	for i, d := range m.detectors {
		det := got.detectors[i]
		for _, g := range d.heldOut {
			for _, run := range l.Golden(g) {
				sid := tr.begin("detect")
				_, alarmed := det.Detect(run.Trace, d.spec.Compare)
				tr.finish(sid)
				if alarmed {
					res.FalseAlarms++
				}
			}
		}
	}
	return got, ""
}

// verifyShapes counts runs that went missing: a campaign with fewer
// results than plans, a nil result or trace, a short golden set, or a
// detector that did not train its configured window. It also records
// each campaign's verdict tally.
func verifyShapes(m *manifest, got collected, res *repResult) int {
	failed := 0
	for i, s := range m.campaigns {
		c := got.campaigns[i]
		want := expectedPlans(s)
		ok := c != nil && len(c.Runs) == want && len(c.Golden) == s.Golden.N
		if ok {
			for _, r := range c.Runs {
				if r.Result == nil || r.Result.Trace == nil {
					ok = false
				}
			}
		}
		if !ok {
			failed += want
			res.Errors = append(res.Errors, "campaign "+s.Key()+": runs missing")
			continue
		}
		row := c.Table1Row(2)
		res.Tallies = append(res.Tallies, tally{
			Campaign:  s.Key(),
			Activated: row.Active,
			SDC:       row.Accidents + row.TrajViolates,
			DUE:       row.HangCrash,
			Masked:    row.Active - row.HangCrash - row.Accidents - row.TrajViolates,
			Total:     row.Total,
		})
	}
	for i, g := range m.goldens {
		ok := len(got.goldens[i]) == g.N
		for _, r := range got.goldens[i] {
			if r == nil || r.Trace == nil {
				ok = false
			}
		}
		if !ok {
			failed += g.N
			res.Errors = append(res.Errors, "golden set "+g.Key()+": runs missing")
		}
	}
	for i, d := range m.detectors {
		if det := got.detectors[i]; det == nil || !det.Trained(d.spec.Cfg.RW) {
			failed += specRuns(d.spec)
			res.Errors = append(res.Errors, "detector "+d.spec.Key()+": not trained")
		}
	}
	return failed
}

// digestAll hashes the wire bytes of every artifact the manifest asked
// for, so the run can require every rep of a run to agree. It
// returns the runs whose artifact could not be encoded.
func digestAll(l *lab.Lab, m *manifest, res *repResult) int {
	failed := 0
	for _, s := range m.specs() {
		data, err := l.EncodeArtifact(s)
		if err != nil {
			failed += specRuns(s)
			res.Errors = append(res.Errors, fmt.Sprintf("encode %s: %v", s.Key(), err))
			continue
		}
		sum := sha256.Sum256(data)
		res.Digests[s.Key()] = hex.EncodeToString(sum[:])
	}
	return failed
}
