package main

import (
	"bytes"
	"fmt"

	"diverseav/internal/lab"
	"diverseav/internal/rng"
)

// checkSample picks the specs the output check recomputes: one campaign
// chosen by the seed, or, for a manifest without campaigns, one golden
// set and one detector chosen by the seed.
func checkSample(m *manifest, seed uint64) []lab.Spec {
	r := rng.New(seed).Split("check")
	if len(m.campaigns) > 0 {
		return []lab.Spec{m.campaigns[r.Intn(len(m.campaigns))]}
	}
	var out []lab.Spec
	if len(m.goldens) > 0 {
		out = append(out, m.goldens[r.Intn(len(m.goldens))])
	}
	if len(m.detectors) > 0 {
		out = append(out, m.detectors[r.Intn(len(m.detectors))].spec)
	}
	return out
}

// outputCheck recomputes the sampled specs in a second, fresh lab and
// requires their artifact bytes to equal the timed lab's. Campaigns are
// re-run on the reference execution path — cold runs, no splicing, no
// lanes — which the spec key leaves out because it must not change a
// byte. It returns the number of runs that failed the check.
func outputCheck(timed *lab.Lab, m *manifest, seed uint64, res *repResult) int {
	failed := 0
	for _, s := range checkSample(m, seed) {
		ref := s
		if c, ok := s.(lab.CampaignSpec); ok {
			c.CheckpointEvery, c.DisableSplice, c.LaneWidth = -1, true, -1
			ref = c
		}
		res.Checked = append(res.Checked, s.Key())
		if err := compareFresh(timed, s, ref); err != nil {
			failed += specRuns(s)
			res.Errors = append(res.Errors, fmt.Sprintf("output check %s: %v", s.Key(), err))
		}
	}
	return failed
}

func compareFresh(timed *lab.Lab, s, ref lab.Spec) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	want, err := timed.EncodeArtifact(s)
	if err != nil {
		return err
	}
	fresh := lab.New()
	if c, ok := ref.(lab.CampaignSpec); ok {
		// Materialize the dependencies first, so the campaign job runs
		// alone and its injection runs get the whole worker pool.
		deps := []lab.Spec{c.Golden}
		if c.Surface == "" {
			deps = append(deps, lab.ProfileSpec{Scenario: c.Scenario, Mode: c.Mode, Seed: c.Seed})
		}
		fresh.Require(deps...)
	}
	fresh.Require(ref)
	got, err := fresh.EncodeArtifact(ref)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("artifact bytes differ (%d vs %d bytes)", len(got), len(want))
	}
	return nil
}
