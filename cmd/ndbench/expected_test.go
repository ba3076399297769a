package main

import (
	"bytes"
	"flag"
	"os"
	"testing"

	"ndsearch/internal/figures"
)

var update = flag.Bool("update", false, "rewrite expected_simulate.json from the current simulator")

// TestSimulateExpected pins the simulate workload's seed-1 core.Result:
// the simulator must keep producing it byte for byte. Run with -update
// only when a change is meant to alter the simulator's output.
func TestSimulateExpected(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the bench-scale suite workload")
	}
	p := defaultSimulate()
	w, sys, err := simSetup(p, 1, figures.NDConfig())
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := simulateOnce(sys, w, p.Batch)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile("expected_simulate.json", append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want := bytes.TrimSpace(expectedSimulate); !bytes.Equal(got, want) {
		t.Fatalf("seed-1 core.Result changed:\n got %s\nwant %s", got, want)
	}
}
