package experiments

import (
	"fmt"

	"cofs/internal/bench"
	"cofs/internal/params"
)

// table1Case is one cell family of Table I.
type table1Case struct {
	name   string
	shared bool
	random bool
}

// Table1 reproduces "Impact of COFS on data transfers, depending on use
// pattern": IOR aggregate rates for GPFS vs COFS across access patterns,
// file layouts, node counts and aggregate sizes, with the qualitative
// verdicts the paper tabulates.
func Table1(seed int64) Figure {
	f := Figure{
		Title: "Table I: IOR data-transfer rates, GPFS vs COFS over GPFS (MB/s)",
		Notes: []string{"\nverdicts: 'comparable' within 15%, otherwise the faster stack and factor."},
	}
	cases := []table1Case{
		{name: "separate files", shared: false, random: false},
		{name: "separate files (random)", shared: false, random: true},
		{name: "single shared file", shared: true, random: false},
		{name: "single shared file (random)", shared: true, random: true},
	}
	for _, tc := range cases {
		t := Table{Name: tc.name, Heading: "\n-- " + tc.name + " --", X: "nodes aggr"}
		for _, label := range []string{"gpfs wr", "cofs wr", "gpfs rd", "cofs rd"} {
			t.Cols = append(t.Cols, Col{Label: label, Fmt: "%.1f"})
		}
		t.Cols = append(t.Cols, Col{Label: "verdict(wr/rd)"})
		for _, n := range []int{1, 4, 8} {
			for _, size := range []int64{256 << 20, 1 << 30, 4 << 30} {
				g := runIOR(seed, "gpfs", n, size, tc)
				c := runIOR(seed, "cofs", n, size, tc)
				t.Rows = append(t.Rows, Row{
					X:    fmt.Sprintf("%d %s", n, byteLabel(size)),
					Y:    []float64{g.WriteMBps, c.WriteMBps, g.ReadMBps, c.ReadMBps},
					Text: []string{verdict(g.WriteMBps, c.WriteMBps) + "/" + verdict(g.ReadMBps, c.ReadMBps)},
				})
			}
		}
		f.Tables = append(f.Tables, t)
	}
	return f
}

func runIOR(seed int64, stack string, nodes int, size int64, tc table1Case) *bench.IORResult {
	return bench.IOR(target(seed, stack, nodes, params.Default()), bench.IORConfig{
		Nodes:          nodes,
		AggregateBytes: size,
		TransferSize:   1 << 20,
		Shared:         tc.shared,
		Random:         tc.random,
		Dir:            "/ior",
		ReadBack:       true,
	})
}

func byteLabel(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dGB", n>>30)
	default:
		return fmt.Sprintf("%dMB", n>>20)
	}
}

func verdict(gpfs, cofs float64) string {
	if gpfs <= 0 || cofs <= 0 {
		return "n/a"
	}
	ratio := cofs / gpfs
	switch {
	case ratio > 1.15:
		return fmt.Sprintf("cofs %.1fx", ratio)
	case ratio < 1/1.15:
		return fmt.Sprintf("gpfs %.1fx", 1/ratio)
	default:
		return "comparable"
	}
}
