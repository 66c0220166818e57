package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestPartialTransferExits2 runs the command with an aggregate that
// leaves every node zero whole transfers: it exits 2 with a message
// before printing any rate.
func TestPartialTransferExits2(t *testing.T) {
	if os.Getenv("IOR_RUN_MAIN") == "1" {
		os.Args = []string{"ior", "-nodes", "4", "-size", "3145728"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestPartialTransferExits2$")
	cmd.Env = append(os.Environ(), "IOR_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2\n%s", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a result before rejecting the config:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "whole number of 1048576 B transfers") {
		t.Errorf("stderr does not say why:\n%s", stderr.String())
	}
}
