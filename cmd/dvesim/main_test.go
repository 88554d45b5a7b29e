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
		code, out := runMain(t, "-rd-entries", v, "-ops", "1000", "-warmup", "0")
		if code != 2 {
			t.Fatalf("-rd-entries %s: exit status %d, want 2\n%s", v, code, out)
		}
		if !strings.Contains(out, "-rd-entries must be at least 1") {
			t.Errorf("-rd-entries %s: output lacks the usage error:\n%s", v, out)
		}
	}
}

// runMain re-executes the test binary as dvesim with args and returns its
// exit status and combined output.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DVESIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err == nil {
		return 0, string(out)
	}
	if !errors.As(err, &exit) {
		t.Fatalf("%v: %v", args, err)
	}
	return exit.ExitCode(), string(out)
}

// TestRejectsBadLinkLatency: a link latency below one cycle or not finite
// is a usage error. -5 used to panic mid-run and NaN used to hang.
func TestRejectsBadLinkLatency(t *testing.T) {
	for _, v := range []string{"-5", "0", "0.1", "NaN", "+Inf", "1e300"} {
		code, out := runMain(t, "-link-ns", v, "-ops", "1000", "-warmup", "0")
		if code != 2 {
			t.Fatalf("-link-ns %s: exit status %d, want 2\n%s", v, code, out)
		}
		if !strings.Contains(out, "bad -link-ns") {
			t.Errorf("-link-ns %s: output lacks the usage error:\n%s", v, out)
		}
	}
}

// TestRejectsRetiredEngineFlags: the worker-goroutine engine is gone, and
// so are its spellings; asking for it is a usage error, not a silent
// fallback.
func TestRejectsRetiredEngineFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-parallel"}, {"-serial"}, {"-engine", "parallel"}, {"-engine", "serial"},
	} {
		code, out := runMain(t, append(args, "-ops", "1000", "-warmup", "0")...)
		if code != 2 {
			t.Errorf("%v: exit status %d, want 2\n%s", args, code, out)
		}
	}
}
