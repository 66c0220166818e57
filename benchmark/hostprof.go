package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// Host-time attribution: a CPU profile of the traced pass, its samples
// bucketed by the package of the leaf function. The profile is the
// gzipped protobuf runtime/pprof writes; only the handful of fields the
// bucketing needs are decoded here (the standard library exports no
// reader for it).

// cpuBuckets are the host.cpu_share.* buckets, in report order.
var cpuBuckets = []string{
	"sim", "netsim", "rpc", "core", "mdb", "lock", "pfs", "vfs", "disk",
	"obs", "runtime_sched", "runtime_gc", "other",
}

// startCPUProfile begins profiling; the returned stop function ends it
// and returns the bucket shares. Non-obs shares are taken of the time
// not spent in obs, so they estimate the untraced run.
func startCPUProfile() (stop func() (map[string]float64, error), err error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	return func() (map[string]float64, error) {
		pprof.StopCPUProfile()
		counts, err := bucketProfile(buf.Bytes())
		if err != nil {
			return nil, err
		}
		var total, obs float64
		for b, n := range counts {
			total += n
			if b == "obs" {
				obs = n
			}
		}
		shares := make(map[string]float64, len(cpuBuckets))
		for _, b := range cpuBuckets {
			switch {
			case total == 0:
				shares[b] = 0
			case b == "obs":
				shares[b] = obs / total
			case total > obs:
				shares[b] = counts[b] / (total - obs)
			}
		}
		return shares, nil
	}, nil
}

// bucketOf names the bucket of a sample from its stack, leaf first.
func bucketOf(stack []string) string {
	if len(stack) == 0 {
		return "other"
	}
	leaf := stack[0]
	if rest, ok := strings.CutPrefix(leaf, "cofs/internal/"); ok {
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		for _, b := range cpuBuckets {
			if b == pkg {
				return b
			}
		}
		return "other"
	}
	if strings.HasPrefix(leaf, "runtime.") || strings.HasPrefix(leaf, "runtime/internal") || strings.HasPrefix(leaf, "internal/runtime") {
		for _, fn := range stack {
			if strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.mallocgc") ||
				strings.HasPrefix(fn, "runtime.bgsweep") || strings.HasPrefix(fn, "runtime.bgscavenge") ||
				strings.Contains(fn, "sweep") || strings.Contains(fn, "scavenge") {
				return "runtime_gc"
			}
		}
		return "runtime_sched"
	}
	return "other"
}

// bucketProfile decodes a pprof CPU profile and sums its sample values
// per bucket.
func bucketProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples  []sample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcName = map[uint64]uint64{}   // function id -> string table index
		strs     []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	counts := map[string]float64{}
	var stack []string
	for _, s := range samples {
		stack = stack[:0]
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcName[fn]; i < uint64(len(strs)) {
					stack = append(stack, strs[i])
				}
			}
		}
		counts[bucketOf(stack)] += float64(s.value)
	}
	return counts, nil
}

var errTruncated = errors.New("truncated protobuf")

func varint(b []byte) (uint64, []byte, error) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return v, b[i+1:], nil
		}
	}
	return 0, nil, errTruncated
}

// eachField walks the fields of one protobuf message: v holds a varint
// or fixed value, b the bytes of a length-delimited one.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		tag, rest, err := varint(b)
		if err != nil {
			return err
		}
		b = rest
		var v uint64
		var body []byte
		switch tag & 7 {
		case 0:
			if v, b, err = varint(b); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			n, rest, err := varint(b)
			if err != nil || uint64(len(rest)) < n {
				return errTruncated
			}
			body, b = rest[:n], rest[n:]
			if body == nil {
				body = []byte{} // an empty packed field is not a varint 0
			}
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", tag&7)
		}
		if err := fn(int(tag>>3), v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field that may arrive packed
// (body) or as a single value (v).
func appendVarints(dst []uint64, v uint64, body []byte) []uint64 {
	if body == nil {
		return append(dst, v)
	}
	for len(body) > 0 {
		x, rest, err := varint(body)
		if err != nil {
			break
		}
		dst = append(dst, x)
		body = rest
	}
	return dst
}
