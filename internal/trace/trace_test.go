package trace

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"cofs/internal/params"
	"cofs/internal/sim"
	"cofs/internal/vfs"
)

func TestKindStringRoundTrip(t *testing.T) {
	for k, name := range kindNames {
		if got := kindByName[name]; got != k {
			t.Errorf("kind %v round-trips to %v", k, got)
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := &Trace{Ops: []Op{
		{Kind: Mkdir, Path: "/d", Mode: 0750},
		{At: time.Millisecond, Node: 0, PID: 1, Kind: WriteFile, Path: "/d/a", Bytes: 4096, Mode: 0644},
		{At: 2 * time.Millisecond, Node: 1, PID: 2, Kind: Stat, Path: "/d/a"},
		{At: 3 * time.Millisecond, Node: 1, PID: 2, Kind: Rename, Path: "/d/a", Path2: "/d/b"},
		{At: 4 * time.Millisecond, Node: 0, PID: 1, Kind: Chmod, Path: "/d", Mode: 0700},
		{At: 5 * time.Millisecond, Node: 0, PID: 1, Kind: ReadFile, Path: "/d/b", Bytes: 100},
		{At: 6 * time.Millisecond, Node: 2, PID: 9, Kind: Link, Path: "/d/b", Path2: "/d/c"},
		{At: 7 * time.Millisecond, Node: 2, PID: 9, Kind: Symlink, Path: "/d/b", Path2: "/d/sl"},
		{At: 8 * time.Millisecond, Node: 2, PID: 9, Kind: Readdir, Path: "/d"},
		{At: 9 * time.Millisecond, Node: 2, PID: 9, Kind: Unlink, Path: "/d/c"},
	}}
	var buf bytes.Buffer
	if err := in.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Ops) != len(in.Ops) {
		t.Fatalf("ops = %d, want %d", len(out.Ops), len(in.Ops))
	}
	for i := range in.Ops {
		if in.Ops[i] != out.Ops[i] {
			t.Errorf("op %d: got %+v, want %+v", i, out.Ops[i], in.Ops[i])
		}
	}
}

// TestEncodeDecodeQuick is the property version: any generated mixed
// trace survives an encode/decode round trip unchanged.
func TestEncodeDecodeQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := GenMixed(rng, MixedConfig{
			Nodes: 1 + rng.Intn(4), OpsPerNode: 1 + rng.Intn(50),
			Dirs: 1 + rng.Intn(3), MaxBytes: 1 << 16, Spacing: time.Millisecond,
		})
		var buf bytes.Buffer
		if err := in.Encode(&buf); err != nil {
			return false
		}
		out, err := Decode(&buf)
		if err != nil {
			return false
		}
		if len(out.Ops) != len(in.Ops) {
			return false
		}
		for i := range in.Ops {
			a, b := in.Ops[i], out.Ops[i]
			// Encoding truncates At to microseconds; compare at that
			// resolution.
			a.At = a.At.Truncate(time.Microsecond)
			if a != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	for _, tc := range []struct {
		name, in string
	}{
		{"truncated", "0 0 1 stat"},
		{"bad time", "x 0 1 stat /f"},
		{"bad node", "0 x 1 stat /f"},
		{"bad pid", "0 0 x stat /f"},
		{"unknown kind", "0 0 1 fly /f"},
		{"rename missing target", "0 0 1 rename /f"},
		{"bad bytes", "0 0 1 write /f nope"},
		{"bad mode", "0 0 1 chmod /f 9z"},
		{"relative path", "0 0 1 stat f"},
		{"relative symlink path", "0 0 1 symlink f0 d/sym"},
		{"time backwards", "5 0 1 stat /f\n2 0 1 stat /f"},
		{"negative node", "0 -1 1 create /d/x"},
		{"negative pid", "0 0 -1 create /d/x"},
	} {
		if _, err := Decode(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: decode accepted %q", tc.name, tc.in)
		}
	}
}

func TestDecodeSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n0 0 1 stat /f\n  \n# tail\n"
	tr, err := Decode(strings.NewReader(in))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(tr.Ops) != 1 {
		t.Fatalf("ops = %d, want 1", len(tr.Ops))
	}
}

// TestSymlinkRelativeTarget: a symlink's Path is its target, which
// Mount.Symlink takes as it is, so a relative one decodes, encodes back
// to the same line and replays.
func TestSymlinkRelativeTarget(t *testing.T) {
	const text = "0 0 1 mkdir /d 755\n1 0 1 symlink f0 /d/sym\n"
	tr, err := Decode(strings.NewReader(text))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, body, _ := strings.Cut(buf.String(), "\n"); body != text {
		t.Fatalf("encoded %q, want %q", body, text)
	}
	target := Target{Env: sim.NewEnv(1), Mounts: []*vfs.Mount{vfs.NewMount(vfs.NewMemFS(), params.FUSEParams{})}}
	if res, err := Replay(target, tr, ReplayOptions{}); err != nil || res.Errors != 0 {
		t.Fatalf("replay: %v, %+v", err, res)
	}
}

func TestValidateRejectsBadKind(t *testing.T) {
	tr := &Trace{Ops: []Op{{Kind: Kind(99), Path: "/f"}}}
	if err := tr.Validate(); err == nil {
		t.Error("Validate accepted unknown kind")
	}
}

func TestGenCheckpointShape(t *testing.T) {
	tr := GenCheckpoint(CheckpointConfig{
		Nodes: 4, Rounds: 3, BytesPerNode: 1 << 20, Interval: time.Second,
	})
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	counts := tr.KindCounts()
	if counts[WriteFile] != 12 {
		t.Errorf("writes = %d, want 12 (4 nodes x 3 rounds)", counts[WriteFile])
	}
	if counts[Unlink] != 8 {
		t.Errorf("unlinks = %d, want 8 (rounds 1..2 remove the prior epoch)", counts[Unlink])
	}
	if tr.Nodes() != 4 {
		t.Errorf("nodes = %d, want 4", tr.Nodes())
	}
	if tr.Duration() != 3*time.Second {
		t.Errorf("duration = %v, want 3s", tr.Duration())
	}
}

func TestGenBatchJobsShape(t *testing.T) {
	tr := GenBatchJobs(BatchConfig{
		Nodes: 8, Jobs: 40, FilesPerJob: 3, BytesPerFile: 1 << 10,
		Stagger: 100 * time.Millisecond,
	})
	if err := tr.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	counts := tr.KindCounts()
	if counts[WriteFile] != 120 {
		t.Errorf("writes = %d, want 120", counts[WriteFile])
	}
	if counts[Stat] != 120 {
		t.Errorf("stats = %d, want 120", counts[Stat])
	}
	// All outputs land in one shared directory — the pattern the paper
	// calls out.
	for _, op := range tr.Ops {
		if op.Kind == WriteFile && !strings.HasPrefix(op.Path, "/results/") {
			t.Fatalf("output outside the shared dir: %s", op.Path)
		}
	}
}

func TestGenMixedDeterministic(t *testing.T) {
	cfg := MixedConfig{Nodes: 3, OpsPerNode: 200, Dirs: 2, MaxBytes: 1 << 16, Spacing: time.Millisecond}
	a := GenMixed(rand.New(rand.NewSource(5)), cfg)
	b := GenMixed(rand.New(rand.NewSource(5)), cfg)
	if len(a.Ops) != len(b.Ops) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Ops), len(b.Ops))
	}
	for i := range a.Ops {
		if a.Ops[i] != b.Ops[i] {
			t.Fatalf("op %d differs: %+v vs %+v", i, a.Ops[i], b.Ops[i])
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestMergeSortsByTime(t *testing.T) {
	a := &Trace{Ops: []Op{{At: 3 * time.Millisecond, Node: 0, PID: 1, Kind: Stat, Path: "/x"}}}
	b := &Trace{Ops: []Op{{At: time.Millisecond, Node: 1, PID: 1, Kind: Stat, Path: "/y"}}}
	m := Merge(a, b)
	if m.Ops[0].Path != "/y" || m.Ops[1].Path != "/x" {
		t.Errorf("merge order wrong: %+v", m.Ops)
	}
}

// TestStreamsSizedOnce: each stream holds exactly the trace's operations
// of its (node, pid), in trace order, in a slice allocated at its length.
func TestStreamsSizedOnce(t *testing.T) {
	tr := GenMixed(rand.New(rand.NewSource(7)), MixedConfig{Nodes: 3, OpsPerNode: 300, Dirs: 2, MaxBytes: 1 << 16, Spacing: time.Millisecond})
	for i := range tr.Ops {
		tr.Ops[i].PID = i % 3 // interleave several streams per node
	}
	streams := tr.Streams()
	want := map[[2]int][]Op{}
	for _, op := range tr.Ops {
		key := [2]int{op.Node, op.PID}
		want[key] = append(want[key], op)
	}
	if len(streams) != len(want) || len(want) != 9 {
		t.Fatalf("%d streams, want %d (9)", len(streams), len(want))
	}
	for key, ops := range want {
		got := streams[key]
		if !slices.Equal(got, ops) {
			t.Fatalf("stream %v differs from the trace's ops for it", key)
		}
		if len(got) != cap(got) {
			t.Fatalf("stream %v: len %d, cap %d", key, len(got), cap(got))
		}
	}
}
