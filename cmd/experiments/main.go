// Command experiments regenerates every table and figure of the paper's
// evaluation. Each subcommand prints the data series behind one artifact
// in the same units the paper uses (ms per operation, MB/s); `all` prints
// every one, in registry order (experiments.All).
//
// Usage:
//
//	experiments [-seed N] <figure>...|all
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"cofs/internal/experiments"
)

func main() {
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.Parse()
	drivers, err := resolve(flag.Args())
	if err != nil {
		names := make([]string, len(experiments.All))
		for i, d := range experiments.All {
			names[i] = d.Name
		}
		fmt.Fprintf(os.Stderr, "experiments: %v\nusage: experiments [-seed N] %s|all\n", err, strings.Join(names, "|"))
		os.Exit(2)
	}
	for _, d := range drivers {
		d.Run(*seed).Fprint(os.Stdout)
	}
}

// resolve maps verbs to registry drivers; "all" alone is every driver.
func resolve(args []string) ([]experiments.Driver, error) {
	if len(args) == 1 && args[0] == "all" {
		return experiments.All, nil
	}
	if len(args) == 0 {
		return nil, fmt.Errorf("no figure named")
	}
	var out []experiments.Driver
	for _, name := range args {
		i := slices.IndexFunc(experiments.All, func(d experiments.Driver) bool { return d.Name == name })
		if i < 0 {
			return nil, fmt.Errorf("unknown figure %q", name)
		}
		out = append(out, experiments.All[i])
	}
	return out, nil
}
