package experiments

import (
	"cmp"
	"fmt"
	"io"
	"strings"

	"cofs/internal/stats"
)

// A Figure is the data behind one table or figure of the evaluation:
// what a driver computes, cmd/experiments prints and BenchmarkPaperFigures
// records point by point.
type Figure struct {
	Title  string
	Tables []Table
	Notes  []string // printed after the tables, one line each
}

// A Table is one block of labelled rows under column headers.
type Table struct {
	Name    string // prefixes the table's point keys; "" in a one-table figure
	Heading string // printed verbatim above the table when set
	X       string // header of the row-label column
	Cols    []Col
	Rows    []Row
}

// A Col is one column header and the fmt verb of its numeric cells
// ("%.3f" when empty).
type Col struct {
	Label, Fmt string
}

// A Row is one labelled row: numbers under the first len(Y) columns,
// then text cells (Table I's verdicts) under the rest.
type Row struct {
	X    string
	Y    []float64
	Text []string
}

// Fprint renders the figure as cmd/experiments prints it.
func (f Figure) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", f.Title)
	for _, t := range f.Tables {
		if t.Heading != "" {
			fmt.Fprintln(w, t.Heading)
		}
		grid := [][]string{{t.X}}
		for _, c := range t.Cols {
			grid[0] = append(grid[0], c.Label)
		}
		for _, r := range t.Rows {
			cells := []string{r.X}
			for i, y := range r.Y {
				cells = append(cells, fmt.Sprintf(cmp.Or(t.Cols[i].Fmt, "%.3f"), y))
			}
			grid = append(grid, append(cells, r.Text...))
		}
		fmt.Fprint(w, stats.Grid(grid))
	}
	for _, n := range f.Notes {
		fmt.Fprintln(w, n)
	}
	fmt.Fprintln(w)
}

// Points flattens the figure to one number per numeric cell, keyed
// "<table>/<column>@<row>", or "<column>@<row>" in an unnamed table.
func (f Figure) Points() map[string]float64 {
	p := make(map[string]float64)
	for _, t := range f.Tables {
		prefix := strings.TrimPrefix(t.Name+"/", "/")
		for _, r := range t.Rows {
			for i, y := range r.Y {
				p[prefix+t.Cols[i].Label+"@"+r.X] = y
			}
		}
	}
	return p
}

// A Driver computes one figure from a seed.
type Driver struct {
	Name string // the cmd/experiments verb; the record is figure/<Name>
	Run  func(seed int64) Figure
}

// All is every driver, in the order `experiments all` prints them.
var All = []Driver{
	{"fig1", Fig1}, {"fig2", Fig2}, {"fig4", Fig4}, {"fig5", Fig5}, {"fig6", Fig6},
	{"table1", Table1}, {"ablation", Ablation}, {"attrcache", AttrCache},
	{"traversal", Traversal}, {"dircap", AblationDirCap},
	{"falsesharing", AblationFalseSharing}, {"network", AblationNetwork},
	{"flush", AblationFlush}, {"clientcache", AblationClientCache},
	{"mdtest", MDTestExp}, {"batchjobs", BatchJobs},
}
