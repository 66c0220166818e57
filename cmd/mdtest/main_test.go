package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestUnknownReshardPhaseExits2 runs the command with a -reshard-at
// that names no phase of the run: it exits 2 with a message instead of
// running without ever resharding.
func TestUnknownReshardPhaseExits2(t *testing.T) {
	if os.Getenv("MDTEST_RUN_MAIN") == "1" {
		os.Args = []string{"mdtest", "-fs", "cofs", "-nodes", "2", "-files", "4", "-shards", "2", "-reshard-at", "file-creat", "-reshard-to", "4"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownReshardPhaseExits2$")
	cmd.Env = append(os.Environ(), "MDTEST_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2\n%s", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a result before rejecting the flag:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), `-reshard-at "file-creat" is not a phase`) {
		t.Errorf("stderr does not say why:\n%s", stderr.String())
	}
}
