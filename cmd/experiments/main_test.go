package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"slices"
	"strings"
	"testing"

	"cofs/internal/experiments"
)

// TestRegistry: every verb is unique, `all` runs every driver in
// registry order, and a list of verbs resolves to those drivers.
func TestRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range experiments.All {
		if d.Name == "" || d.Name == "all" || seen[d.Name] {
			t.Errorf("bad or duplicate verb %q", d.Name)
		}
		seen[d.Name] = true
	}
	all, err := resolve([]string{"all"})
	if err != nil || len(all) != len(experiments.All) {
		t.Fatalf("all resolves to %d drivers (err %v), want %d", len(all), err, len(experiments.All))
	}
	for i, d := range all {
		if d.Name != experiments.All[i].Name {
			t.Errorf("all[%d] = %q, want %q", i, d.Name, experiments.All[i].Name)
		}
	}
	two, err := resolve([]string{"fig5", "fig1"})
	if err != nil || len(two) != 2 || two[0].Name != "fig5" || two[1].Name != "fig1" {
		t.Errorf("resolve(fig5 fig1) = %v, %v", two, err)
	}
}

// TestUnknownVerbExits2 runs the command with a verb it does not know:
// it exits 2 before computing anything and lists every registry name.
func TestUnknownVerbExits2(t *testing.T) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") == "1" {
		os.Args = []string{"experiments", "fig1", "nope"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownVerbExits2$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("exit: %v, want status 2\n%s", err, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a figure before rejecting the verb:\n%s", stdout.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown figure "nope"`) {
		t.Errorf("stderr does not name the verb:\n%s", msg)
	}
	for _, d := range experiments.All {
		if !slices.Contains(strings.FieldsFunc(msg, func(r rune) bool { return r == '|' || r == ' ' || r == '\n' }), d.Name) {
			t.Errorf("usage does not list %q:\n%s", d.Name, msg)
		}
	}
}
