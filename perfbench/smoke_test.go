package main

import (
	"os"
	"testing"
)

// TestSmoke runs every workload at a reduced size, untraced and traced,
// with every reference check on.
func TestSmoke(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	sz := sizes{
		rounds: 1, windowMs: 1, events: 20_000, fixedSec: 0.3, mixedSec: 0.2,
		probeEach: 5, walProbeMs: 100,
	}
	for _, name := range []string{"web", "ingest", "query"} {
		for _, traced := range []bool{false, true} {
			b, err := execute(name, workloads[name], 7, sz, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !b.res.Correct || b.res.Failed != 0 || b.res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v",
					name, traced, b.res.Correct, b.res.Attempted, b.res.Failed, b.errs)
			}
			want := map[string]bool{}
			if traced {
				for _, s := range layerSpecs {
					want[s.name] = true
				}
			} else {
				for _, n := range endToEnd {
					want[n] = true
				}
			}
			for n := range want {
				if _, ok := b.res.Metrics[n]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, n)
				}
			}
			if len(b.res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(b.res.Metrics), len(want))
			}
		}
	}
}
