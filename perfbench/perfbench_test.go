package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestMain lets the test binary stand in for the perfbench binary when
// drive spawns a rep process.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-rep" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// declaredMetric is one metric entry of BENCHMARK.json.
type declaredMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// benchmarkFile is the part of BENCHMARK.json the code must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return &b
}

// keys is a manifest's identity: the content-hash key of every spec.
func (m *manifest) keys() []string {
	var out []string
	for _, s := range m.specs() {
		out = append(out, s.Key())
	}
	return out
}

func TestManifestDeterministic(t *testing.T) {
	for _, w := range workloads {
		a, err := w.manifestFor(7, "bench")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.manifestFor(7, "bench")
		c, _ := w.manifestFor(8, "bench")
		if !reflect.DeepEqual(a.keys(), b.keys()) {
			t.Errorf("%s: seed 7 gave two different manifests", w.name)
		}
		if reflect.DeepEqual(a.keys(), c.keys()) {
			t.Errorf("%s: seeds 7 and 8 gave the same manifest", w.name)
		}
		if a.runsAsked() != c.runsAsked() {
			t.Errorf("%s: manifest size depends on the seed: %d vs %d runs", w.name, a.runsAsked(), c.runsAsked())
		}
	}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatches pins BENCHMARK.json to the code: the gated
// workloads with the same reasons, and the same metrics with the same
// units and directions.
func TestBenchmarkFileMatches(t *testing.T) {
	b := readBenchmarkFile(t)
	type entry struct{ name, why string }
	var listed, gated []entry
	for _, w := range b.Workloads {
		listed = append(listed, entry{w.Name, w.Why})
	}
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, entry{w.name, w.why})
		}
	}
	if !reflect.DeepEqual(listed, gated) {
		t.Errorf("workloads:\nBENCHMARK.json %v\ngated in code  %v", listed, gated)
	}
	var e2e, layers []metricDef
	for _, m := range b.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit, m.Better})
	}
	for _, m := range b.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit, m.Better})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end metrics:\nBENCHMARK.json %v\ncode           %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer()) {
		t.Errorf("per_layer metrics:\nBENCHMARK.json %v\ncode           %v", layers, perLayer())
	}
	for _, m := range append(e2e, layers...) {
		if !metricName.MatchString(m.name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]", m.name)
		}
	}
}

// checkPrinted requires a run's metrics to be exactly the declared set.
func checkPrinted(t *testing.T, res *result, want []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(want))
	}
	for _, d := range want {
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("metric %s not printed", d.name)
		} else if m.Unit != d.unit {
			t.Errorf("metric %s printed in %q, declared in %q", d.name, m.Unit, d.unit)
		}
	}
}

// TestTinyRuns drives every workload at its tiny size through the real
// rep processes, untraced and traced, and requires no failed run.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			if traced && w.name != "transient-lanes" {
				continue // one traced workload covers the traced path
			}
			res, err := drive(io.Discard, driveOptions{workload: w.name, seed: 3, size: "tiny", traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d runs failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd
			if traced {
				want = perLayer()
			}
			checkPrinted(t, res, want)
		}
	}
}
