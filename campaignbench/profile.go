package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"path"
	"strings"
	"time"
)

// This file reads the CPU profiles runtime/pprof writes and credits
// every sample to a layer of the repository. The profile format is
// gzip-compressed protobuf (github.com/google/pprof, proto/profile.proto);
// only the fields attribution needs are decoded.

// frame is one function in a sample's stack.
type frame struct {
	function, file string
}

// sample is one CPU profile sample: its stack, leaf first, and the CPU
// time it stands for.
type sample struct {
	frames []frame
	cpu    time.Duration
}

// campaignFiles splits internal/campaign into layers by source file.
// Files not listed (campaign.go, columnar.go, dedup.go, …) are the
// runner core: scheduling, the shape memo and the shard fold.
var campaignFiles = map[string]string{
	"plan.go":          "plan",
	"checkpoint.go":    "journal",
	"versions.go":      "versions",
	"robustness.go":    "robustness",
	"communication.go": "campaign.wire",
	"metrics.go":       "obs",
}

// gcWorkers are the runtime's background collector goroutines.
var gcWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// layerOf credits a stack to the innermost frame from a repository
// package. Stacks with no such frame go to runtime.gc when a collector
// worker runs them, to bench when the benchmark or its profiler does,
// and to unattributed otherwise.
func layerOf(frames []frame) string {
	for _, f := range frames {
		if l := repoLayer(f); l != "" {
			return l
		}
	}
	for _, f := range frames {
		if gcWorkers[f.function] {
			return "runtime.gc"
		}
		if strings.HasPrefix(f.function, "runtime/pprof.") {
			return "bench"
		}
	}
	return "unattributed"
}

// repoLayer names the layer of one frame, or "" for code outside the
// repository. The benchmark's own package is the bench layer; it is
// named main in the binary and by its import path in its tests.
func repoLayer(f frame) string {
	if strings.HasPrefix(f.function, "main.") || strings.HasPrefix(f.function, "wsinterop/campaignbench.") {
		return "bench"
	}
	const internal = "wsinterop/internal/"
	if !strings.HasPrefix(f.function, internal) {
		return ""
	}
	pkg := f.function[len(internal):]
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	if pkg != "campaign" {
		return pkg
	}
	if l, ok := campaignFiles[path.Base(f.file)]; ok {
		return l
	}
	return "campaign.fold"
}

// attribute sums each layer's CPU time over the samples.
func attribute(samples []sample) map[string]time.Duration {
	credit := make(map[string]time.Duration)
	for _, s := range samples {
		credit[layerOf(s.frames)] += s.cpu
	}
	return credit
}

// parseProfile decodes a CPU profile into samples.
func parseProfile(data []byte) ([]sample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("decompress profile: %w", err)
		}
	}
	type rawSample struct {
		locations []uint64
		values    []uint64
	}
	var (
		strs      []string
		types     []uint64 // string index of each sample value's type
		raw       []rawSample
		functions = make(map[uint64][2]uint64) // function id → name, file string indexes
		locations = make(map[uint64][]uint64)  // location id → function ids, innermost first
	)
	err := walk(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walk(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					types = append(types, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locations = appendVarints(s.locations, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			raw = append(raw, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locations[id] = fns
			return err
		case 5: // function
			var id uint64
			var ref [2]uint64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					ref[0] = v
				case 4:
					ref[1] = v
				}
				return nil
			})
			functions[id] = ref
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decode profile: %w", err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range types {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile has no cpu sample value")
	}
	samples := make([]sample, 0, len(raw))
	for _, r := range raw {
		if cpu >= len(r.values) {
			return nil, errors.New("profile sample lacks its cpu value")
		}
		s := sample{cpu: time.Duration(r.values[cpu])}
		for _, loc := range r.locations {
			for _, fn := range locations[loc] {
				ref := functions[fn]
				s.frames = append(s.frames, frame{function: str(ref[0]), file: str(ref[1])})
			}
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// walk calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func walk(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad field key")
		}
		data = data[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errors.New("bad varint")
			}
			data = data[n:]
		case 1, 5:
			size := 8
			if key&7 == 5 {
				size = 4
			}
			if len(data) < size {
				return errors.New("truncated fixed field")
			}
			data = data[size:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field given either unpacked
// (one value v) or packed (payload b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}
