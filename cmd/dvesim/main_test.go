package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test re-execute this binary as dvesim itself.
func TestMain(m *testing.M) {
	if os.Getenv("DVESIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsEmptyReplicaDirectory: a replica directory needs at least one
// entry; smaller values are a usage error, not a panic mid-simulation.
func TestRejectsEmptyReplicaDirectory(t *testing.T) {
	for _, v := range []string{"0", "-1"} {
		cmd := exec.Command(os.Args[0], "-rd-entries", v, "-ops", "1000", "-warmup", "0")
		cmd.Env = append(os.Environ(), "DVESIM_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("-rd-entries %s: err %v, want exit status 2\n%s", v, err, out)
		}
		if !strings.Contains(string(out), "-rd-entries must be at least 1") {
			t.Errorf("-rd-entries %s: output lacks the usage error:\n%s", v, out)
		}
	}
}
