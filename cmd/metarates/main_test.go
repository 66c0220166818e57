package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"
)

// TestFlagErrorsExit2 runs the command with a -reshard-at that names no
// phase of the run, and with an -ops entry metarates does not have:
// each exits 2 with a message, instead of running without ever
// resharding or panicking.
func TestFlagErrorsExit2(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-reshard-at", "stats", "-reshard-to", "4"}, `-reshard-at "stats" is not a phase`},
		{[]string{"-ops", "create,unlink"}, `unknown op "unlink"`},
	}
	if i, err := strconv.Atoi(os.Getenv("METARATES_RUN_MAIN")); err == nil {
		os.Args = append([]string{"metarates", "-fs", "cofs", "-nodes", "2", "-files", "4", "-shards", "2"}, cases[i].args...)
		main()
		return
	}
	for i, tc := range cases {
		cmd := exec.Command(os.Args[0], "-test.run=^TestFlagErrorsExit2$")
		cmd.Env = append(os.Environ(), "METARATES_RUN_MAIN="+strconv.Itoa(i))
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("%v: exit: %v, want status 2\n%s", tc.args, err, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed a result before rejecting the flag:\n%s", tc.args, stdout.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: stderr does not say why:\n%s", tc.args, stderr.String())
		}
	}
}
