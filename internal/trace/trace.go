// Package trace defines a file-system operation trace format, workload
// generators that emit traces for the access patterns motivating the
// paper (section II: parallel checkpoint dumps, bunches of small batch
// jobs writing to shared directories) and for its two metadata
// benchmarks (metarates and mdtest, as barrier-separated phases), and
// the one loop that drives any mounted stack — bare GPFS-like or COFS —
// from operations: Replay plays a trace, Run a sequence of phases.
//
// Traces make the paper's "some applications use inadequate file and
// directory layouts" argument concrete: the same recorded application
// behaviour replays unchanged against both stacks, and the per-operation
// latency report shows what the virtualization layer absorbs.
//
// The on-disk format is line-oriented text, one operation per line:
//
//	<at_us> <node> <pid> <kind> <path> [<path2>|<bytes>|<mode>]
//
// where at_us is the operation's issue time in microseconds relative to
// trace start (used by timed replay), and the trailing field depends on
// the kind. Lines starting with '#' are comments.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Kind identifies one traced operation.
type Kind int

// Trace operation kinds.
const (
	// Mkdir creates a directory (mkdir -p semantics on replay, so
	// traces need not spell out every ancestor).
	Mkdir Kind = iota
	// Create creates an empty file and closes it.
	Create
	// WriteFile creates (or truncates) a file, writes Bytes and closes.
	WriteFile
	// ReadFile opens a file, reads Bytes (or to EOF if Bytes == 0) and
	// closes.
	ReadFile
	// Stat stats a path.
	Stat
	// Utime touches a path's timestamps.
	Utime
	// Chmod sets Mode on a path.
	Chmod
	// OpenClose opens a file and immediately closes it (the paper's
	// fourth metarates operation).
	OpenClose
	// Unlink removes a file.
	Unlink
	// Rmdir removes an empty directory.
	Rmdir
	// Rename moves Path to Path2.
	Rename
	// Readdir lists a directory.
	Readdir
	// Link hard-links Path at Path2.
	Link
	// Symlink creates a symlink at Path2 pointing at Path.
	Symlink
)

var kindNames = map[Kind]string{
	Mkdir:     "mkdir",
	Create:    "create",
	WriteFile: "write",
	ReadFile:  "read",
	Stat:      "stat",
	Utime:     "utime",
	Chmod:     "chmod",
	OpenClose: "open",
	Unlink:    "unlink",
	Rmdir:     "rmdir",
	Rename:    "rename",
	Readdir:   "readdir",
	Link:      "link",
	Symlink:   "symlink",
}

var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, n := range kindNames {
		m[n] = k
	}
	return m
}()

// String returns the wire name of the kind.
func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Op is one traced operation.
type Op struct {
	// At is the issue time relative to trace start; timed replay
	// sleeps each stream until its next operation's At.
	At   time.Duration
	Node int
	PID  int
	Kind Kind
	Path string
	// Path2 is the second path of Rename/Link/Symlink.
	Path2 string
	// Bytes is the transfer size of WriteFile/ReadFile.
	Bytes int64
	// Mode is the permission argument of Mkdir/Create/WriteFile/Chmod.
	Mode uint32
}

// Trace is an ordered list of operations.
type Trace struct {
	Ops []Op
}

// Validate checks structural well-formedness: kinds are known, node and
// pid are non-negative, paths are absolute (a symlink's target, its
// Path, need only be non-empty), two-path kinds carry Path2, times are
// non-decreasing per (node, pid) stream.
func (t *Trace) Validate() error {
	last := make(map[[2]int]time.Duration)
	for i, op := range t.Ops {
		if _, ok := kindNames[op.Kind]; !ok {
			return fmt.Errorf("trace: op %d: unknown kind %d", i, int(op.Kind))
		}
		if op.Node < 0 || op.PID < 0 {
			return fmt.Errorf("trace: op %d: negative node %d or pid %d", i, op.Node, op.PID)
		}
		switch {
		case op.Kind == Symlink && op.Path == "":
			return fmt.Errorf("trace: op %d: symlink needs a target", i)
		case op.Kind != Symlink && !strings.HasPrefix(op.Path, "/"):
			return fmt.Errorf("trace: op %d: path %q is not absolute", i, op.Path)
		}
		switch op.Kind {
		case Rename, Link, Symlink:
			if !strings.HasPrefix(op.Path2, "/") {
				return fmt.Errorf("trace: op %d: %s needs an absolute second path, got %q", i, op.Kind, op.Path2)
			}
		}
		key := [2]int{op.Node, op.PID}
		if op.At < last[key] {
			return fmt.Errorf("trace: op %d: time goes backwards within stream node=%d pid=%d", i, op.Node, op.PID)
		}
		last[key] = op.At
	}
	return nil
}

// Streams groups operations by (node, pid), preserving order. Replay
// runs one simulated process per stream. Each stream is counted first
// and allocated once, at its exact length.
func (t *Trace) Streams() map[[2]int][]Op {
	sizes := make(map[[2]int]int)
	for _, op := range t.Ops {
		sizes[[2]int{op.Node, op.PID}]++
	}
	out := make(map[[2]int][]Op, len(sizes))
	for key, n := range sizes {
		out[key] = make([]Op, 0, n)
	}
	for _, op := range t.Ops {
		key := [2]int{op.Node, op.PID}
		out[key] = append(out[key], op)
	}
	return out
}

// Nodes returns the number of distinct nodes referenced (max node + 1).
func (t *Trace) Nodes() int {
	max := -1
	for _, op := range t.Ops {
		if op.Node > max {
			max = op.Node
		}
	}
	return max + 1
}

// KindCounts histograms the trace by kind.
func (t *Trace) KindCounts() map[Kind]int {
	out := make(map[Kind]int)
	for _, op := range t.Ops {
		out[op.Kind]++
	}
	return out
}

// Duration returns the latest At in the trace.
func (t *Trace) Duration() time.Duration {
	var d time.Duration
	for _, op := range t.Ops {
		if op.At > d {
			d = op.At
		}
	}
	return d
}

// Encode writes the trace in the line format.
func (t *Trace) Encode(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# cofs trace: %d ops, %d nodes, span %v\n", len(t.Ops), t.Nodes(), t.Duration())
	for _, op := range t.Ops {
		fmt.Fprintf(bw, "%d %d %d %s %s", op.At.Microseconds(), op.Node, op.PID, op.Kind, op.Path)
		switch op.Kind {
		case Rename, Link, Symlink:
			fmt.Fprintf(bw, " %s", op.Path2)
		case WriteFile:
			fmt.Fprintf(bw, " %d %o", op.Bytes, op.Mode)
		case ReadFile:
			fmt.Fprintf(bw, " %d", op.Bytes)
		case Create, Chmod, Mkdir:
			fmt.Fprintf(bw, " %o", op.Mode)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// Decode parses a trace in the line format.
func Decode(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var t Trace
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 5 {
			return nil, fmt.Errorf("trace: line %d: want at least 5 fields, got %d", lineNo, len(fields))
		}
		atUs, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad time %q", lineNo, fields[0])
		}
		node, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad node %q", lineNo, fields[1])
		}
		pid, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad pid %q", lineNo, fields[2])
		}
		kind, ok := kindByName[fields[3]]
		if !ok {
			return nil, fmt.Errorf("trace: line %d: unknown kind %q", lineNo, fields[3])
		}
		op := Op{
			At:   time.Duration(atUs) * time.Microsecond,
			Node: node,
			PID:  pid,
			Kind: kind,
			Path: fields[4],
		}
		// Kinds that take a mode default it when the field is absent.
		switch kind {
		case Create, WriteFile, Chmod:
			op.Mode = 0644
		case Mkdir:
			op.Mode = 0755
		}
		parseMode := func(s string) error {
			m, err := strconv.ParseUint(s, 8, 32)
			if err != nil {
				return fmt.Errorf("trace: line %d: bad mode %q", lineNo, s)
			}
			op.Mode = uint32(m)
			return nil
		}
		switch kind {
		case Rename, Link, Symlink:
			if len(fields) < 6 {
				return nil, fmt.Errorf("trace: line %d: %s needs a second path", lineNo, kind)
			}
			op.Path2 = fields[5]
		case WriteFile, ReadFile:
			if len(fields) >= 6 {
				n, err := strconv.ParseInt(fields[5], 10, 64)
				if err != nil || n < 0 {
					return nil, fmt.Errorf("trace: line %d: bad byte count %q", lineNo, fields[5])
				}
				op.Bytes = n
			}
			if kind == WriteFile && len(fields) >= 7 {
				if err := parseMode(fields[6]); err != nil {
					return nil, err
				}
			}
		case Create, Chmod, Mkdir:
			if len(fields) >= 6 {
				if err := parseMode(fields[5]); err != nil {
					return nil, err
				}
			}
		}
		t.Ops = append(t.Ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// SortByTime orders operations by issue time, breaking ties by (node,
// pid) then original position. Generators emit sorted traces; use this
// after merging traces.
func (t *Trace) SortByTime() {
	sort.SliceStable(t.Ops, func(i, j int) bool {
		a, b := t.Ops[i], t.Ops[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.PID < b.PID
	})
}

// Merge concatenates traces and re-sorts by time.
func Merge(traces ...*Trace) *Trace {
	var out Trace
	for _, t := range traces {
		out.Ops = append(out.Ops, t.Ops...)
	}
	out.SortByTime()
	return &out
}
